package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fullweb/internal/workload"
)

// The three traces, all at one tenth of the paper's Table 1 volumes
// over one week, so each planted Hurst exponent and tail index holds.
var traceProfiles = map[string]func() workload.Profile{
	"wvu":      workload.WVU,
	"clarknet": workload.ClarkNet,
	"csee":     workload.CSEE,
}

const traceScale = 0.1

// traceInfo is the generator's ground truth for one cached trace.
type traceInfo struct {
	Records  int64 `json:"records"`
	Sessions int64 `json:"sessions"`
	// Day1Bytes and Day1Records delimit the trace's first day: the
	// prefix live-ingest's crashed run delivered.
	Day1Bytes   int64 `json:"day1_bytes"`
	Day1Records int64 `json:"day1_records"`
}

// seedCache is the per-seed directory of inputs and references. Every
// file in it is listed with its SHA-256 in sums.json and verified on
// use; references that depend on the program live under a
// subdirectory named after the binary's hash.
type seedCache struct {
	dir    string
	binDir string // dir/bin-<hash>: references and crashed state
	bin    string
	seed   int64
}

func openSeedCache(root, bin string, seed int64) (*seedCache, error) {
	sum, err := fileSHA256(bin)
	if err != nil {
		return nil, err
	}
	c := &seedCache{
		dir:  filepath.Join(root, fmt.Sprintf("seed-%d", seed)),
		bin:  bin,
		seed: seed,
	}
	c.binDir = filepath.Join(c.dir, "bin-"+sum[:12])
	if err := os.MkdirAll(c.binDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating cache: %w", err)
	}
	return c, nil
}

// trace returns the path and ground truth of a trace, generating it on
// first use. The file is checksummed on every use, which also warms the
// page cache before anything is timed.
func (c *seedCache) trace(name string) (string, traceInfo, error) {
	path := filepath.Join(c.dir, name+".log")
	infoPath := filepath.Join(c.dir, name+".json")
	var info traceInfo
	if err := c.verify(c.dir, name+".log", name+".json"); err == nil {
		if err := readJSON(infoPath, &info); err != nil {
			return "", info, err
		}
		return path, info, nil
	}
	info, err := generateTrace(name, c.seed, path)
	if err != nil {
		return "", info, err
	}
	if err := writeJSON(infoPath, info); err != nil {
		return "", info, err
	}
	if err := c.seal(c.dir, name+".log", name+".json"); err != nil {
		return "", info, err
	}
	return path, info, nil
}

// generateTrace writes the profile's trace as CLF and returns its
// planted counts and first-day boundary.
func generateTrace(name string, seed int64, path string) (traceInfo, error) {
	var info traceInfo
	tr, err := workload.Generate(traceProfiles[name](), workload.Config{Scale: traceScale, Seed: seed})
	if err != nil {
		return info, fmt.Errorf("generating %s: %w", name, err)
	}
	f, err := os.Create(path + ".tmp")
	if err != nil {
		return info, fmt.Errorf("creating trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	dayEnd := tr.Records[0].Time.Truncate(24 * time.Hour).Add(24 * time.Hour)
	var off int64
	for i, r := range tr.Records {
		if info.Day1Bytes == 0 && !r.Time.Before(dayEnd) {
			info.Day1Bytes, info.Day1Records = off, int64(i)
		}
		line := r.FormatCLF()
		if _, err := w.WriteString(line); err != nil {
			return info, fmt.Errorf("writing trace: %w", err)
		}
		if err := w.WriteByte('\n'); err != nil {
			return info, fmt.Errorf("writing trace: %w", err)
		}
		off += int64(len(line)) + 1
	}
	if err := w.Flush(); err != nil {
		return info, fmt.Errorf("writing trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return info, fmt.Errorf("writing trace: %w", err)
	}
	info.Records = int64(len(tr.Records))
	info.Sessions = int64(tr.PlantedSessions)
	return info, os.Rename(path+".tmp", path)
}

// reference returns a cached program output, computing it with make on
// first use.
func (c *seedCache) reference(name string, make func() ([]byte, error)) ([]byte, error) {
	path := filepath.Join(c.binDir, name)
	if err := c.verify(c.binDir, name); err == nil {
		return os.ReadFile(path)
	}
	out, err := make()
	if err != nil {
		return nil, fmt.Errorf("computing reference %s: %w", name, err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return nil, fmt.Errorf("writing reference: %w", err)
	}
	return out, c.seal(c.binDir, name)
}

// sums.json maps a file (relative to its directory) to its SHA-256.
func sumsPath(dir string) string { return filepath.Join(dir, "sums.json") }

// seal records the checksums of the named files (directories are
// walked) in dir's sums.json.
func (c *seedCache) seal(dir string, names ...string) error {
	sums := map[string]string{}
	_ = readJSON(sumsPath(dir), &sums)
	for _, rel := range expand(dir, names) {
		s, err := fileSHA256(filepath.Join(dir, rel))
		if err != nil {
			return err
		}
		sums[rel] = s
	}
	return writeJSON(sumsPath(dir), sums)
}

// verify checks the named files (directories are walked) against
// dir's sums.json.
func (c *seedCache) verify(dir string, names ...string) error {
	sums := map[string]string{}
	if err := readJSON(sumsPath(dir), &sums); err != nil {
		return err
	}
	files := expand(dir, names)
	if len(files) == 0 {
		return errors.New("nothing cached")
	}
	for _, rel := range files {
		want, ok := sums[rel]
		if !ok {
			return fmt.Errorf("%s not sealed", rel)
		}
		got, err := fileSHA256(filepath.Join(dir, rel))
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("%s checksum mismatch", rel)
		}
	}
	return nil
}

// expand lists the regular files under each name, relative to dir.
func expand(dir string, names []string) []string {
	var out []string
	for _, n := range names {
		_ = filepath.WalkDir(filepath.Join(dir, n), func(p string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				rel, _ := filepath.Rel(dir, p)
				out = append(out, rel)
			}
			return nil
		})
	}
	sort.Strings(out)
	return out
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// copyTree copies a file or directory tree to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		return copyFile(p, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copying %s: %w", src, err)
	}
	return out.Close()
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path+".tmp", b, 0o644); err != nil {
		return err
	}
	return os.Rename(path+".tmp", path)
}

// readLog loads a cached trace's bytes.
func readLog(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading trace: %w", err)
	}
	return b, nil
}

// splitDeliveries cuts data into line-aligned pieces of about size
// bytes (a line longer than size is its own piece).
func splitDeliveries(data []byte, size int) [][]byte {
	var out [][]byte
	for len(data) > size {
		cut := bytes.LastIndexByte(data[:size], '\n')
		if cut < 0 {
			if cut = bytes.IndexByte(data, '\n'); cut < 0 {
				break
			}
		}
		out = append(out, data[:cut+1])
		data = data[cut+1:]
	}
	if len(data) > 0 {
		out = append(out, data)
	}
	return out
}
