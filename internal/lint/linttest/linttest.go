// Package linttest runs an analyzer over fixture packages and checks
// its diagnostics against expectations embedded in the fixtures — the
// stdlib-only equivalent of golang.org/x/tools/go/analysis/analysistest,
// using the same testdata layout and want-comment convention:
//
//	testdata/src/<pkgpath>/*.go
//
// with expectations written on the line the diagnostic must land on:
//
//	byHost[k] = append(byHost[k], v) // want `appended to inside a range`
//
// The want payload is a regular expression, in backquotes or double
// quotes, matched against the diagnostic message. Every want must be
// matched by exactly one diagnostic and every diagnostic must match a
// want. //lint:allow suppression is applied before matching, so
// fixtures can (and do) test the escape hatch by carrying an allowed
// violation with no want comment.
package linttest

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"fullweb/internal/lint"
	"fullweb/internal/lint/analysis"
	"fullweb/internal/lint/load"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatalf("linttest: resolving testdata: %v", err)
	}
	return dir
}

// Run loads each fixture package from testdata/src/<pkgpath>,
// type-checks it (fixtures must be type-clean), runs the analyzer
// with //lint:allow suppression, and diffs the findings against the
// fixture's want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	for _, pkgpath := range pkgpaths {
		l := load.New(filepath.Join(testdata, "src"), "")
		pkg, err := l.Load(pkgpath)
		if err != nil {
			t.Errorf("%s: loading fixture %s: %v", a.Name, pkgpath, err)
			continue
		}
		if len(pkg.Errors) > 0 {
			t.Errorf("%s: fixture %s does not type-check: %v", a.Name, pkgpath, pkg.Errors[0])
			continue
		}
		findings, err := lint.Run(pkg, a)
		if err != nil {
			t.Errorf("%s: running on %s: %v", a.Name, pkgpath, err)
			continue
		}
		wants, err := collectWants(pkg)
		if err != nil {
			t.Errorf("%s: fixture %s: %v", a.Name, pkgpath, err)
			continue
		}
		matchFindings(t, a.Name, findings, wants)
	}
}

// want is one expectation: a diagnostic whose message matches re at
// file:line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRE locates the want keyword; wantPatternRE then pulls every
// payload after it, so one comment can expect several diagnostics on
// its line (a "// want" followed by two backquoted patterns), as
// analysistest allows.
var (
	wantRE        = regexp.MustCompile("//\\s*want\\s+(`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\")")
	wantPatternRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

// collectWants parses want comments out of the fixture's syntax.
func collectWants(pkg *load.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				loc := wantRE.FindStringIndex(c.Text)
				if loc == nil {
					if strings.Contains(c.Text, "want") && strings.Contains(c.Text, "`") {
						return nil, fmt.Errorf("malformed want comment at %s", pkg.Fset.Position(c.Pos()))
					}
					continue
				}
				// Everything after the want keyword may carry several
				// payloads; each expects its own diagnostic on this line.
				start := strings.Index(c.Text[loc[0]:loc[1]], "`")
				if q := strings.Index(c.Text[loc[0]:loc[1]], `"`); start < 0 || (q >= 0 && q < start) {
					start = q
				}
				for _, pattern := range wantPatternRE.FindAllString(c.Text[loc[0]+start:], -1) {
					if pattern[0] == '`' {
						pattern = pattern[1 : len(pattern)-1]
					} else {
						unq, err := strconv.Unquote(pattern)
						if err != nil {
							return nil, fmt.Errorf("bad want pattern at %s: %v", pkg.Fset.Position(c.Pos()), err)
						}
						pattern = unq
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						return nil, fmt.Errorf("bad want regexp at %s: %v", pkg.Fset.Position(c.Pos()), err)
					}
					pos := pkg.Fset.Position(c.Pos())
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants, nil
}

func matchFindings(t *testing.T, name string, findings []lint.Finding, wants []*want) {
	t.Helper()
	for _, f := range findings {
		var hit *want
		for _, w := range wants {
			if !w.matched && w.file == f.Position.Filename && w.line == f.Position.Line && w.re.MatchString(f.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s: unexpected diagnostic: %s", name, f)
			continue
		}
		hit.matched = true
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: missing diagnostic at %s:%d matching %q", name, w.file, w.line, w.re)
		}
	}
}
