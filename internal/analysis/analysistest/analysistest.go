// Package analysistest runs rpclint analyzers over fixture packages and
// checks their findings against `// want` expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on this repo's
// dependency-free framework.
//
// Fixtures live under <testdata>/src/<importpath>/*.go (GOPATH layout).
// A line expecting diagnostics carries a trailing comment of the form
//
//	// want "regexp" `another regexp`
//
// with one pattern per expected diagnostic on that line; each pattern is
// matched against "analyzer: message". The run includes the suppression
// pipeline, so //rpclint:ignore directives in fixtures behave exactly as
// they do under cmd/rpclint.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"rpcscale/internal/analysis"
)

// TestData returns the caller package's testdata directory.
func TestData() string {
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		panic("analysistest: cannot locate caller")
	}
	return filepath.Join(filepath.Dir(file), "testdata")
}

// expectation is one want pattern at a file line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture packages named by patterns (import paths under
// testdata/src) and reports every mismatch between analyzer findings and
// want expectations through t. A pattern that matches no fixture, or a
// fixture that does not type-check, fails the load.
func Run(t *testing.T, testdata string, analyzers []*analysis.Analyzer, patterns ...string) {
	t.Helper()
	loader, err := analysis.NewSourceLoader(filepath.Join(testdata, "src"))
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		t.Fatalf("analysistest: load: %v", err)
	}
	findings, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		t.Fatalf("analysistest: run: %v", err)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ws, err := collectWants(pkg.Fset, file)
			if err != nil {
				t.Fatalf("analysistest: %v", err)
			}
			wants = append(wants, ws...)
		}
	}

	for _, f := range findings {
		text := f.Analyzer + ": " + f.Message
		if w := matchWant(wants, f.File, f.Line, text); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("%s:%d: unexpected diagnostic: %s", f.File, f.Line, text)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

func matchWant(wants []*expectation, file string, line int, text string) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(text) {
			return w
		}
	}
	return nil
}

// wantRE extracts the pattern list after a "want" marker: double-quoted
// or backquoted strings.
var wantRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(fset *token.FileSet, file *ast.File) ([]*expectation, error) {
	var out []*expectation
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			idx := strings.Index(text, "// want ")
			if idx < 0 {
				if !strings.HasPrefix(text, "// want ") {
					continue
				}
				idx = 0
			}
			pos := fset.Position(c.Pos())
			for _, q := range wantRE.FindAllString(text[idx+len("// want "):], -1) {
				raw := q[1 : len(q)-1]
				if q[0] == '"' {
					raw = strings.ReplaceAll(raw, `\"`, `"`)
					raw = strings.ReplaceAll(raw, `\\`, `\`)
				}
				re, err := regexp.Compile(raw)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, raw, err)
				}
				out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
			}
		}
	}
	return out, nil
}
