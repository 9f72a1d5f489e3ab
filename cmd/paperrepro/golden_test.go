package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paperrepro.golden and testdata/paperrepro_csv.sha256 from this build")

// TestPaperreproGolden pins every byte paperrepro produces on a seeded
// one-day run of all experiments: the full stdout, with the -csv
// directory replaced by a fixed name, and the SHA-256 of each figure
// CSV. A change to the harness or the pipeline beneath it that claims
// identical output is checked against committed bytes rather than a
// hand-run comparison. `go test -run TestPaperreproGolden -update`
// rewrites both golden files, for an intended output change only.
func TestPaperreproGolden(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-scale", "0.03", "-seed", "2", "-days", "1", "-csv", dir}, &out); err != nil {
		t.Fatal(err)
	}
	stdout := strings.ReplaceAll(out.String(), dir, "csv")
	sums := csvSums(t, dir)
	goldenOut := filepath.Join("testdata", "paperrepro.golden")
	goldenSums := filepath.Join("testdata", "paperrepro_csv.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenOut, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSums, []byte(sums), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenOut)
	if err != nil {
		t.Fatal(err)
	}
	wantSums, err := os.ReadFile(goldenSums)
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Errorf("stdout differs from %s; got:\n%s", goldenOut, stdout)
	}
	if sums != string(wantSums) {
		t.Errorf("CSV digests differ from %s; got:\n%s", goldenSums, sums)
	}
}

// csvSums lists "sha256  name" for every file in dir, in name order —
// the format sha256sum prints, so `sha256sum -c` can check a directory
// by hand.
func csvSums(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		name := e.Name()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		fmt.Fprintf(&b, "%s  %s\n", hex.EncodeToString(sum[:]), name)
	}
	return b.String()
}
