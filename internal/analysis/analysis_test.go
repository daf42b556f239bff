package analysis

import (
	"strings"
	"testing"
)

func TestSyncCheckFlagsSeededViolations(t *testing.T) { checkFixture(t, SyncCheck, "syncbad") }
func TestSyncCheckPassesCleanCode(t *testing.T)       { checkFixture(t, SyncCheck, "syncclean") }

func TestSyncCheckFlagsNBIViolations(t *testing.T) { checkFixture(t, SyncCheck, "nbibad") }
func TestSyncCheckPassesCleanNBICode(t *testing.T) { checkFixture(t, SyncCheck, "nbiclean") }

func TestSyncCheckFlagsCtxViolations(t *testing.T) { checkFixture(t, SyncCheck, "ctxbad") }
func TestSyncCheckPassesCleanCtxCode(t *testing.T) { checkFixture(t, SyncCheck, "ctxclean") }

func TestLockCheckFlagsSeededViolations(t *testing.T) { checkFixture(t, LockCheck, "lockbad") }
func TestLockCheckPassesCleanCode(t *testing.T)       { checkFixture(t, LockCheck, "lockclean") }

func TestCollectiveCheckFlagsSeededViolations(t *testing.T) {
	checkFixture(t, CollectiveCheck, "collbad")
}
func TestCollectiveCheckPassesCleanCode(t *testing.T) { checkFixture(t, CollectiveCheck, "collclean") }

func TestSymCheckFlagsSeededViolations(t *testing.T) { checkFixture(t, SymCheck, "symbad") }
func TestSymCheckPassesCleanCode(t *testing.T)       { checkFixture(t, SymCheck, "symclean") }

// The interprocedural fixtures run the three summary-consuming analyzers as
// a suite: each violation is laundered through a helper in a second file, so
// the expectations only hold when summaries flow across function and file
// boundaries.
func TestInterproceduralFlagsSeededViolations(t *testing.T) {
	checkFixtureSuite(t, []*Analyzer{SyncCheck, LockCheck, CollectiveCheck}, "interbad")
}
func TestInterproceduralPassesCleanCode(t *testing.T) {
	checkFixtureSuite(t, []*Analyzer{SyncCheck, LockCheck, CollectiveCheck}, "interclean")
}

func TestDeadlockCheckFlagsSeededViolations(t *testing.T) {
	checkFixture(t, DeadlockCheck, "deadbad")
}
func TestDeadlockCheckPassesCleanCode(t *testing.T) { checkFixture(t, DeadlockCheck, "deadclean") }

// keyshadow is the regression fixture for the statVars shadowing fix: Stat
// bindings are keyed by object identity, so a shadowed inner binding must
// not corrupt the outer lock's path tracking.
func TestLockCheckStatShadowingRegression(t *testing.T) { checkFixture(t, LockCheck, "keyshadow") }

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
	for _, want := range []string{"synccheck", "lockcheck", "collectivecheck", "symcheck", "deadlockcheck"} {
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
	if countFuncBodies(pkg) == 0 {
		t.Error("no function bodies found")
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
	prog := NewProgram(l)
	for _, pkg := range pkgs {
		for _, d := range RunAnalyzers(prog, pkg, All()) {
			t.Errorf("unexpected finding in %s: %s", pkg.Path, d)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "synccheck", Message: "boom"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "x.go", 3, 7
	if got := d.String(); !strings.HasPrefix(got, "x.go:3:7: synccheck: boom") {
		t.Errorf("String() = %q", got)
	}
}
