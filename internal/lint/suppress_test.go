package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fullweb/internal/lint"
	"fullweb/internal/lint/analysis"
	"fullweb/internal/lint/hotalloc"
	"fullweb/internal/lint/load"
	"fullweb/internal/lint/mergealias"
	"fullweb/internal/lint/rawgo"
	"fullweb/internal/lint/statesync"
)

// writeFixture materializes a one-package fixture tree and loads it.
func writeFixture(t *testing.T, src string) *load.Package {
	t.Helper()
	dir := t.TempDir()
	pkgDir := filepath.Join(dir, "fixture")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := load.New(dir, "").Load("fixture")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkg.Errors) > 0 {
		t.Fatalf("fixture does not type-check: %v", pkg.Errors[0])
	}
	return pkg
}

func TestAllowSuppressesOnlyItsRule(t *testing.T) {
	pkg := writeFixture(t, `package fixture

func spawnSameLine(fn func()) {
	go fn() //lint:allow rawgo vetted one-shot
}

func spawnLineAbove(fn func()) {
	//lint:allow rawgo vetted one-shot
	go fn()
}

func spawnWrongRule(fn func()) {
	//lint:allow maporder wrong rule named
	go fn()
}
`)
	findings, err := lint.Run(pkg, rawgo.Analyzer)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 {
		t.Fatalf("want exactly the wrong-rule finding, got %d: %v", len(findings), findings)
	}
	if findings[0].Rule != "rawgo" || findings[0].Position.Line != 14 {
		t.Errorf("unexpected finding: %v", findings[0])
	}
}

// TestAllowCoversDataflowRules pins the escape hatch for the PR-7
// dataflow rules: each fixture carries one allowed violation and one
// bare violation of the same shape; exactly the bare one must survive.
func TestAllowCoversDataflowRules(t *testing.T) {
	cases := []struct {
		rule string
		src  string
	}{
		{"hotalloc", `package fixture

import "fmt"

//hot:path
func hotAllowed(x int) {
	fmt.Println(x) //lint:allow hotalloc amortized by the caller
}

//hot:path
func hotBare(x int) {
	fmt.Println(x)
}
`},
		{"mergealias", `package fixture

type sk struct{ items []int }

func (s *sk) Sample() []int {
	return s.items //lint:allow mergealias documented ownership transfer
}

func (s *sk) Samples() []int {
	return s.items
}
`},
		{"statesync", `package fixture

type st struct{ n int }

type stImage struct{ N int }

//lint:allow statesync fixture type; decode lives elsewhere
func (s *st) State() stImage {
	return stImage{N: s.n}
}

type st2 struct{ n int }

type st2Image struct{ N int }

func (s *st2) State() st2Image {
	return st2Image{N: s.n}
}
`},
	}
	analyzers := map[string]*analysis.Analyzer{
		"hotalloc":   hotalloc.Analyzer,
		"mergealias": mergealias.Analyzer,
		"statesync":  statesync.Analyzer,
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			pkg := writeFixture(t, tc.src)
			findings, err := lint.Run(pkg, analyzers[tc.rule])
			if err != nil {
				t.Fatal(err)
			}
			if len(findings) != 1 || findings[0].Rule != tc.rule {
				t.Fatalf("want exactly one unsuppressed %s finding, got %v", tc.rule, findings)
			}
		})
	}
}

// TestMalformedAllowOnDataflowRule pins that a reason-less allow is
// both reported and ignored for the new rules, matching the rawgo
// behavior below.
func TestMalformedAllowOnDataflowRule(t *testing.T) {
	pkg := writeFixture(t, `package fixture

import "fmt"

//hot:path
func hot(x int) {
	fmt.Println(x) //lint:allow hotalloc
}
`)
	findings, err := lint.Run(pkg, hotalloc.Analyzer)
	if err != nil {
		t.Fatal(err)
	}
	var gotMalformed, gotHotalloc bool
	for _, f := range findings {
		switch f.Rule {
		case "lint":
			gotMalformed = gotMalformed || strings.Contains(f.Message, "malformed //lint:allow")
		case "hotalloc":
			gotHotalloc = true
		}
	}
	if !gotMalformed || !gotHotalloc {
		t.Errorf("reason-less allow must be reported and must not suppress: %v", findings)
	}
}

func TestMalformedAllowIsReported(t *testing.T) {
	pkg := writeFixture(t, `package fixture

//lint:allow rawgo
func spawn(fn func()) {
	go fn()
}
`)
	findings, err := lint.Run(pkg, rawgo.Analyzer)
	if err != nil {
		t.Fatal(err)
	}
	var gotMalformed, gotRawgo bool
	for _, f := range findings {
		switch f.Rule {
		case "lint":
			gotMalformed = gotMalformed || strings.Contains(f.Message, "malformed //lint:allow")
		case "rawgo":
			gotRawgo = true
		}
	}
	if !gotMalformed {
		t.Errorf("reason-less allow not reported as malformed: %v", findings)
	}
	if !gotRawgo {
		t.Errorf("reason-less allow must not suppress the diagnostic: %v", findings)
	}
}
