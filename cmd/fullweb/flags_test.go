package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// defaultSuffix is how flag.PrintDefaults renders a non-zero default.
var defaultSuffix = regexp.MustCompile(`\(default (.*)\)$`)

// flagSurface runs `fullweb <cmd> -h` and reduces the help text to one
// line per flag: its name, its type and, when not the zero value, its
// default as the help prints it. Usage prose is left out.
func flagSurface(t *testing.T, cmd string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "help")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	err = run([]string{cmd, "-h"}, io.Discard)
	os.Stderr = saved
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("%s -h: %v, want flag.ErrHelp", cmd, err)
	}
	help, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(help), "\n")
	var b strings.Builder
	for i, line := range lines {
		if !strings.HasPrefix(line, "  -") {
			continue
		}
		b.WriteString(strings.TrimSpace(line))
		if i+1 < len(lines) {
			// A string default prints quoted; an unquoted one is usage
			// prose (-faults names its environment fallback that way).
			m := defaultSuffix.FindStringSubmatch(lines[i+1])
			if m != nil && (!strings.HasSuffix(line, " string") || strings.HasPrefix(m[1], `"`)) {
				b.WriteString(" = " + m[1])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestFlagSurface pins every flag of stream and serve — name, type and
// default — so a refactor of the flag wiring cannot drop, rename or
// re-default one. An intended change to the surface updates the golden.
func TestFlagSurface(t *testing.T) {
	for _, cmd := range []string{"stream", "serve"} {
		golden := filepath.Join("testdata", cmd+"_flags.golden")
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := flagSurface(t, cmd); got != string(want) {
			t.Errorf("%s flag surface differs from %s; got:\n%s", cmd, golden, got)
		}
	}
}

// TestEngineFlagsRejectNegative: a negative pool size, chunk geometry
// or field cap is a usage error on both commands, named in the message
// and raised before any input is opened or listener bound. The required
// flags name inputs that cannot open, so a missed check fails fast.
func TestEngineFlagsRejectNegative(t *testing.T) {
	required := map[string][]string{
		"stream": {"-log", "does-not-exist.log"},
		"serve":  {"-source", "s", "-listen", "127.0.0.1:-1"},
	}
	for cmd, base := range required {
		for _, name := range []string{"parallel", "chunk-lines", "chunk-window", "max-field-bytes"} {
			args := append(append([]string{cmd}, base...), "-"+name, "-5")
			err := run(args, io.Discard)
			if err == nil || !strings.Contains(err.Error(), "-"+name+" must be >= 0") {
				t.Errorf("%s -%s -5: %v, want a usage error naming the flag", cmd, name, err)
			}
		}
	}
}

// TestBudgetFlagsNeedBudgetedMode: strict and lenient modes spend no
// error budget, so every command that takes -mode refuses a non-zero
// -max-rejects, -max-reject-rate or -max-clamped under them instead of
// ignoring it. TestStreamModesCLI and TestAnalyzeInputHealth run
// the budgeted mode that spends them.
func TestBudgetFlagsNeedBudgetedMode(t *testing.T) {
	required := map[string][]string{
		"stream":  {"-log", "does-not-exist.log"},
		"serve":   {"-source", "s", "-listen", "127.0.0.1:-1"},
		"analyze": {"-log", "does-not-exist.log"},
	}
	budgetFlags := map[string][]string{
		"stream":  {"max-rejects", "max-reject-rate", "max-clamped"},
		"serve":   {"max-rejects", "max-reject-rate", "max-clamped"},
		"analyze": {"max-rejects", "max-reject-rate"},
	}
	for cmd, base := range required {
		for _, name := range budgetFlags[cmd] {
			for _, mode := range []string{"strict", "lenient"} {
				args := append(append([]string{cmd}, base...), "-mode", mode, "-"+name, "1")
				err := run(args, io.Discard)
				want := "-" + name + " applies only to -mode budgeted, got -mode " + mode
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s -mode %s -%s 1: %v, want %q", cmd, mode, name, err, want)
				}
			}
		}
	}
}
