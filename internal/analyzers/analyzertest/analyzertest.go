// Package analyzertest is a miniature of
// golang.org/x/tools/go/analysis/analysistest: it typechecks a package
// under an analyzer's testdata/src directory, runs the analyzer, and
// matches the diagnostics against `// want "regexp"` comments in the
// sources. Only the standard library is used; imports inside testdata
// resolve through the source importer, so testdata may import std
// packages like sync and sync/atomic, and this module's packages.
package analyzertest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"thinlock/internal/analyzers"
)

// wantRE matches `// want "..."` (interpreted string) or a backquoted
// raw string, each holding a regexp, as analysistest does.
var wantRE = regexp.MustCompile("//\\s*want\\s+(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads testdata/src/<pkg> relative to the caller's directory,
// runs the analyzers over it, and reports mismatches on t.
func Run(t *testing.T, testdata string, as []*analyzers.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read testdata package: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		files = append(files, f)
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pattern, err := strconv.Unquote(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want string %s: %v", path, i+1, m[1], err)
			}
			re, err := regexp.Compile(pattern)
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, pattern, err)
			}
			wants = append(wants, &expectation{file: path, line: i + 1, re: re, raw: pattern})
		}
	}
	if len(files) == 0 {
		t.Fatalf("no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tcfg := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	typed, err := tcfg.Check(pkg, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", pkg, err)
	}

	diags, err := analyzers.RunAnalyzers(as, fset, files, typed, info)
	if err != nil {
		t.Fatal(err)
	}

	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}
