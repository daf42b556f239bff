package analysis

import (
	"maps"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The analyzer test harness: fixtures under testdata/src/<name> carry
// expectation comments in the x/tools analysistest style —
//
//	return shmem.Sym{Off: 128, Size: 64} // want "constructed by hand"
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
// own type check only, and what a test loads stays in its own loader.
func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	base, err := baseLoader()
	if err != nil {
		t.Fatal(err)
	}
	l := *base
	l.pkgs, l.loading = maps.Clone(base.pkgs), map[string]bool{}
	return &l
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

// checkFixture runs one analyzer over a fixture and matches its findings
// against the fixture's expectations, keyed by (file, line).
func checkFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkg, err := newTestLoader(t).Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	for _, e := range pkg.TypeErrs {
		t.Errorf("fixture %s has type error: %v", name, e)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{a})
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
