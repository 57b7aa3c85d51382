// Package analysistest runs an analyzer over a fixture package and
// checks its diagnostics against `// want "re"` comment expectations —
// the in-tree equivalent of golang.org/x/tools/go/analysis/analysistest,
// reduced to what the sunmap-lint analyzers need.
//
// Fixture packages live under the analyzer's testdata directory. They
// are real, compiling packages (the go command only hides testdata from
// `./...` wildcards, not from explicit arguments), so fixtures may
// import the repo's internal packages.
//
// Expectations are trailing comments on the offending line:
//
//	for k := range m { // want "map iteration order"
//
// The string is a regular expression matched against the diagnostic
// message. Several `// want "a" "b"` patterns on one line expect several
// diagnostics. A fixture with no want comments asserts the analyzer is
// silent (the "clean" fixture of each pair).
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"sunmap/internal/analysis"
)

// wantRe extracts the quoted patterns of one want comment. Patterns are
// double-quoted Go strings or backquoted raw strings (handy for regexps
// full of backslashes).
var wantRe = regexp.MustCompile("//\\s*want((?:\\s+(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`))+)")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the fixture package at dir (relative to the test's working
// directory, e.g. "testdata/bad") and applies the analyzer, failing the
// test on any mismatch between diagnostics and want comments. The
// analyzer's Match filter is bypassed: fixtures always run.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkgs, err := analysis.Load(".", "./"+strings.TrimPrefix(dir, "./"))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: loaded %d packages, want 1", dir, len(pkgs))
	}
	pkg := pkgs[0]

	expects := collectWants(t, pkg)

	var unexpected []string
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
	}
	pass.Report = func(d analysis.Diagnostic) {
		pos := pkg.Fset.Position(d.Pos)
		for _, e := range expects {
			if e.matched || e.file != pos.Filename || e.line != pos.Line {
				continue
			}
			if e.pattern.MatchString(d.Message) {
				e.matched = true
				return
			}
		}
		unexpected = append(unexpected, fmt.Sprintf("%s: unexpected diagnostic: %s", pos, d.Message))
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("%s on fixture %s: %v", a.Name, dir, err)
	}

	for _, msg := range unexpected {
		t.Error(msg)
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
		}
	}
}

// collectWants parses the fixture's want comments.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var expects []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					expects = append(expects, &expectation{
						file:    pos.Filename,
						line:    pos.Line,
						pattern: re,
					})
				}
			}
		}
	}
	return expects
}

// splitQuoted splits the quoted patterns of a want comment tail like
// ` "a" `+"`b`"+` into their quoted forms.
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexAny(s, "\"`")
		if i < 0 {
			return out
		}
		s = s[i:]
		if s[0] == '`' {
			j := strings.IndexByte(s[1:], '`')
			if j < 0 {
				return out
			}
			out = append(out, s[:j+2])
			s = s[j+2:]
			continue
		}
		// Scan to the closing double quote, honoring escapes.
		closed := false
		for j := 1; j < len(s); j++ {
			if s[j] == '\\' {
				j++
				continue
			}
			if s[j] == '"' {
				out = append(out, s[:j+1])
				s = s[j+1:]
				closed = true
				break
			}
		}
		if !closed {
			return out
		}
	}
}
