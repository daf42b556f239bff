package analysis

import (
	"strings"
	"testing"
)

func TestSymCheckFlagsSeededViolations(t *testing.T) { checkFixture(t, SymCheck, "symbad") }
func TestSymCheckPassesCleanCode(t *testing.T)       { checkFixture(t, SymCheck, "symclean") }

func TestAllAnalyzersRegistered(t *testing.T) {
	names := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely declared", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{"symcheck"} {
		if !names[want] {
			t.Errorf("missing analyzer %q", want)
		}
	}
}

// TestLoaderLoadsRepoPackages checks the source loader against the real
// module: the shmem package must type-check without errors through the chain
// importer (module-local source + stdlib source importer).
func TestLoaderLoadsRepoPackages(t *testing.T) {
	l := newTestLoader(t)
	if l.ModulePath() != "cafshmem" {
		t.Fatalf("module path = %q, want cafshmem", l.ModulePath())
	}
	pkg, err := l.Load(l.ModuleRoot() + "/internal/shmem")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pkg.TypeErrs {
		t.Errorf("type error in internal/shmem: %v", e)
	}
	if pkg.Path != "cafshmem/internal/shmem" {
		t.Errorf("path = %q", pkg.Path)
	}
	if pkg.Types.Scope().Lookup("Run") == nil {
		t.Error("internal/shmem type-checked without its declarations")
	}
}

// TestRepoPackagesAreVetClean runs the full suite over the packages shmemvet
// gates in tier-1; the repo must be clean so the gate can require exit 0.
func TestRepoPackagesAreVetClean(t *testing.T) {
	l := newTestLoader(t)
	var pkgs []*Package
	for _, rel := range []string{
		"internal/shmem", "internal/caf", "internal/pgasbench", "internal/dht",
	} {
		pkg, err := l.Load(l.ModuleRoot() + "/" + rel)
		if err != nil {
			t.Fatalf("loading %s: %v", rel, err)
		}
		pkgs = append(pkgs, pkg)
	}
	for _, pkg := range pkgs {
		for _, d := range RunAnalyzers(pkg, All()) {
			t.Errorf("unexpected finding in %s: %s", pkg.Path, d)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "symcheck", Message: "boom"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got := d.String(); !strings.HasPrefix(got, "x.go:3:7: symcheck: boom") {
		t.Errorf("String() = %q", got)
	}
}
