package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stream_1h.golden and testdata/stream_1h.ckpt.sha256 from this build")

// goldenChildEnv marks the re-executed run of TestStreamOutputGolden
// under another time zone.
const goldenChildEnv = "FULLWEB_GOLDEN_CHILD"

// goldenStream runs `fullweb stream -snapshot 1h -checkpoint` with the
// given extra flags over log and returns stdout, with the log's path
// replaced by a fixed name so the bytes do not depend on where the
// trace sits, plus the SHA-256 of the final checkpoint file.
func goldenStream(t *testing.T, log string, extra ...string) (string, string) {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "ckpt")
	args := append([]string{"-log", log, "-snapshot", "1h", "-checkpoint", ckpt}, extra...)
	out := strings.ReplaceAll(runStream(t, args...), log, "trace.log")
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return out, hex.EncodeToString(sum[:])
}

// TestStreamOutputGolden pins the stream command's stdout and its final
// checkpoint byte for byte over a seeded one-day WVU trace (~57k
// records, 650 sessions, long single-host runs), so an engine change
// that claims identical output is checked against committed bytes
// rather than a hand-run comparison. A 32-item quantile sketch makes
// the session characteristics compact through several ladder levels,
// so the approximate read-offs are pinned as well as the exact ones.
// The output must not depend on pool size, chunk geometry, the log's
// path or the local time zone: the test re-runs itself under a zone
// with a half-hour offset. `go test -run TestStreamOutputGolden
// -update` rewrites both golden files.
func TestStreamOutputGolden(t *testing.T) {
	log := filepath.Join(t.TempDir(), "wvu.log")
	var gen bytes.Buffer
	if err := run([]string{"generate", "-profile", "WVU", "-scale", "0.025", "-seed", "3", "-days", "1", "-out", log}, &gen); err != nil {
		t.Fatal(err)
	}
	const quant = "-quantile-cap"
	out, sum := goldenStream(t, log, quant, "32")
	goldenOut := filepath.Join("testdata", "stream_1h.golden")
	goldenSum := filepath.Join("testdata", "stream_1h.ckpt.sha256")
	if *update && os.Getenv(goldenChildEnv) == "" {
		if err := os.WriteFile(goldenOut, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenSum, []byte(sum+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenOut)
	if err != nil {
		t.Fatal(err)
	}
	wantSum, err := os.ReadFile(goldenSum)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("stdout differs from %s; got:\n%s", goldenOut, out)
	}
	if sum != strings.TrimSpace(string(wantSum)) {
		t.Fatalf("final checkpoint sha256 %s, %s has %s", sum, goldenSum, strings.TrimSpace(string(wantSum)))
	}
	for _, extra := range [][]string{{"-parallel", "1"}, {"-parallel", "3"}, {"-chunk-lines", "64"}} {
		if got, _ := goldenStream(t, log, append([]string{quant, "32"}, extra...)...); got != out {
			t.Errorf("stdout at %v differs from %s", extra, goldenOut)
		}
	}
	if os.Getenv(goldenChildEnv) != "" {
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStreamOutputGolden$")
	cmd.Env = append(os.Environ(), "TZ=Asia/Kolkata", goldenChildEnv+"=1")
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("under TZ=Asia/Kolkata: %v\n%s", err, msg)
	}
}
