package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout.golden from this build")

// TestOutputGolden pins the example's stdout byte for byte at its real
// constants: the M/M/1 promise next to the fluid queue fed Poisson and
// LRD arrivals of one mean rate, whose backlogs part by orders of
// magnitude (§4.2).
// `go test ./examples/capacity -update` rewrites the golden file.
func TestOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "stdout.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("stdout differs from %s; got:\n%s", golden, out.Bytes())
	}
}
