package analysis

import (
	"go/ast"
	"maps"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The analyzer test harness: fixtures under testdata/src/<name> carry
// expectation comments in the x/tools analysistest style —
//
//	pe.GetMem(1, data, 0, out) // want "read of data before"
//
// Each quoted string is a regexp that must match a diagnostic reported on
// that line; diagnostics without a matching expectation, and expectations
// without a matching diagnostic, both fail the test. Clean fixtures carry no
// expectations and must produce no diagnostics.

var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// baseLoader type-checks the module's runtime packages and, through its source
// importer, the standard library: once per test binary.
var baseLoader = sync.OnceValues(func() (*Loader, error) {
	l, err := NewLoader(".")
	if err == nil {
		// internal/caf imports shmem, pgas and fabric: all a fixture uses.
		_, err = l.Load(l.ModuleRoot() + "/internal/caf")
	}
	return l, err
})

// newTestLoader returns a loader that starts from baseLoader's packages and
// shares its file set and standard-library importer, so a fixture costs its
// own type check only. What a test loads stays in its own loader: no
// fixture's summaries or lock edges reach another's Program.
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	base, err := baseLoader()
	if err != nil {
		t.Fatal(err)
	}
	l := *base
	l.pkgs, l.order, l.loading = maps.Clone(base.pkgs), slices.Clone(base.order), map[string]bool{}
	return &l
}

func loadFixture(t *testing.T, name string) (*Package, *Program) {
	t.Helper()
	l := newTestLoader(t)
	pkg, err := l.Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	for _, e := range pkg.TypeErrs {
		t.Errorf("fixture %s has type error: %v", name, e)
	}
	return pkg, NewProgram(l)
}

type lineKey struct {
	file string
	line int
}

func fixtureWants(pkg *Package) map[lineKey][]string {
	wants := map[lineKey][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				idx := strings.Index(text, "want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRE.FindAllStringSubmatch(text[idx:], -1) {
					k := lineKey{pos.Filename, pos.Line}
					wants[k] = append(wants[k], m[1])
				}
			}
		}
	}
	return wants
}

// checkFixture runs one analyzer over a fixture with the interprocedural
// Program enabled; checkFixtureSuite runs several (multi-analyzer fixtures
// assert the combined behaviour). Fixtures may span multiple files — wants
// are keyed by (file, line) across the whole package.
func checkFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	checkFixtureSuite(t, []*Analyzer{a}, name)
}

func checkFixtureSuite(t *testing.T, analyzers []*Analyzer, name string) {
	t.Helper()
	pkg, prog := loadFixture(t, name)
	diags := RunAnalyzers(prog, pkg, analyzers)
	wants := fixtureWants(pkg)

	matched := map[lineKey][]bool{}
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		k := lineKey{d.Pos.Filename, d.Pos.Line}
		ok := false
		for i, want := range wants[k] {
			if matched[k][i] {
				continue
			}
			re, err := regexp.Compile(want)
			if err != nil {
				t.Fatalf("bad want regexp %q: %v", want, err)
			}
			if re.MatchString(d.Message) {
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k := range wants {
		for i, got := range matched[k] {
			if !got {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, wants[k][i])
			}
		}
	}
}

// countFuncBodies sanity-checks that closures are visited as bodies.
func countFuncBodies(pkg *Package) int {
	n := 0
	p := &Pass{Pkg: pkg}
	p.funcBodies(func(string, *ast.BlockStmt) { n++ })
	return n
}
