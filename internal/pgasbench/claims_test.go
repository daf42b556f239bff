package pgasbench

import (
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
)

// defaultFigures memoizes the default-scale build of each catalogued figure,
// so every test below reads one evaluation (≈2 s for all thirteen).
var defaultFigures = map[string]*Figure{}

func built(t *testing.T, id string) *Figure {
	t.Helper()
	if f, ok := defaultFigures[id]; ok {
		return f
	}
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("figure %q is not catalogued", id)
	}
	f := e.Build(DefaultScale)
	defaultFigures[id] = &f
	return &f
}

// claimsOf runs every claim on one figure as a subtest named by the claim id.
// An unstable claim is logged with this run's value and cannot fail.
func claimsOf(t *testing.T, id string) {
	f := built(t, id)
	for i := range Claims {
		c := &Claims[i]
		if c.Figure != id {
			continue
		}
		t.Run(c.ID, func(t *testing.T) {
			r, err := c.Evaluate(f)
			if err != nil {
				t.Fatal(err)
			}
			t.Log(r)
			if r.Missed() {
				t.Errorf("claim missed: %s", r)
			}
		})
	}
}

// TestClaims holds the default-scale evaluation to the whole claims table.
func TestClaims(t *testing.T) {
	for _, e := range Catalog {
		claimsOf(t, e.ID)
	}
}

// The per-figure names the test floor pins select their figure's rows of the
// same table; ROADMAP (housekeeping) retires them a few per PR.
func TestFig2Orderings(t *testing.T)                  { claimsOf(t, "fig2") }
func TestFig3Orderings(t *testing.T)                  { claimsOf(t, "fig3") }
func TestFig6StridedOrderings(t *testing.T)           { claimsOf(t, "fig6") }
func TestFig7NaiveEquals2dim(t *testing.T)            { claimsOf(t, "fig7") }
func TestFig8Orderings(t *testing.T)                  { claimsOf(t, "fig8") }
func TestFig9Shape(t *testing.T)                      { claimsOf(t, "fig9") }
func TestFig10Shape(t *testing.T)                     { claimsOf(t, "fig10") }
func TestMatrixOrientedAblation(t *testing.T)         { claimsOf(t, "matrix") }
func TestFigOverlapSpeedupOnAllMachines(t *testing.T) { claimsOf(t, "overlap") }
func TestFigSignalBarrierFreeAndFaster(t *testing.T)  { claimsOf(t, "signal") }

func TestCatalogAndClaimsIntegrity(t *testing.T) {
	claimed := map[string]bool{}
	seen := map[string]bool{}
	for _, c := range Claims {
		if seen[c.ID] {
			t.Errorf("claim id %q used twice", c.ID)
		}
		seen[c.ID] = true
		if _, ok := Lookup(c.Figure); !ok {
			t.Errorf("claim %s: figure %q is not catalogued", c.ID, c.Figure)
		}
		if (c.Holds == nil) == (c.Value == nil) {
			t.Errorf("claim %s: want exactly one of Holds and Value", c.ID)
		}
		claimed[c.Figure] = true
	}
	for _, e := range Catalog {
		if !claimed[e.ID] {
			t.Errorf("catalogued figure %q has no claim", e.ID)
		}
	}
}

// relabelled returns a copy of f whose panel's series labels are mapped
// through rename; rows are shared.
func relabelled(f *Figure, panel int, rename map[string]string) *Figure {
	c := *f
	c.Panels = slices.Clone(f.Panels)
	c.Panels[panel].Series = slices.Clone(f.Panels[panel].Series)
	for i, s := range c.Panels[panel].Series {
		if to, ok := rename[s.Label]; ok {
			c.Panels[panel].Series[i].Label = to
		}
	}
	return &c
}

// The gate can fail: with two series of a panel swapped, exactly the claim
// that orders them — a predicate in Fig 2, a band in the ablation — is missed.
func TestSeededMissIsReported(t *testing.T) {
	seededMiss(t, "fig2", 2, "Cray-SHMEM", "GASNet-gemini", "fig2.cray-shmem-beats-gasnet")
	seededMiss(t, "basedim", 0, "2dim", "bestdim", "basedim.locality")
}

func seededMiss(t *testing.T, fig string, panel int, a, b, want string) {
	results, err := EvaluateClaims(fig, relabelled(built(t, fig), panel, map[string]string{a: b, b: a}))
	if err != nil {
		t.Fatal(err)
	}
	var missed []string
	for _, r := range results {
		if r.Missed() {
			missed = append(missed, r.Claim.ID)
		}
	}
	if !slices.Equal(missed, []string{want}) {
		t.Errorf("%s with %s and %s swapped: missed claims = %v, want exactly %s", fig, a, b, missed, want)
	}
}

// A claim naming a series its figure no longer has is an error that names
// the claim, the figure, the panel and the label — not a nil dereference.
func TestRenamedSeriesIsAnError(t *testing.T) {
	f := relabelled(built(t, "fig8"), 0, map[string]string{"Cray-CAF": "Cray-CAF-v2"})
	_, err := EvaluateClaims("fig8", f)
	var miss *MissingSeriesError
	if !errors.As(err, &miss) {
		t.Fatalf("err = %v, want a MissingSeriesError", err)
	}
	want := MissingSeriesError{Claim: "fig8.vs-craycaf", Figure: "Fig8", Panel: "Locks: all images acquiring/releasing lck[1]", Label: "Cray-CAF"}
	if *miss != want {
		t.Errorf("error names %+v, want %+v", *miss, want)
	}
	if msg := `claim fig8.vs-craycaf: figure Fig8, panel "Locks: all images acquiring/releasing lck[1]" has no series "Cray-CAF"`; err.Error() != msg {
		t.Errorf("error reads %q, want %q", err, msg)
	}
}

// EXPERIMENTS.md's per-figure tables are the renderer's output at default
// scale, verbatim: the document cannot certify what the code does not produce.
func TestExperimentsTablesAreGenerated(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Catalog {
		results, err := EvaluateClaims(e.ID, built(t, e.ID))
		if err != nil {
			t.Fatal(err)
		}
		if block := ClaimsBlock(e.ID, results); !strings.Contains(string(doc), block) {
			t.Errorf("EXPERIMENTS.md does not carry the generated table for %s; paste it from `go run ./cmd/reproduce`:\n%s", e.ID, block)
		}
	}
	if n := strings.Count(string(doc), "<!-- claims:"); n != len(Catalog) {
		t.Errorf("EXPERIMENTS.md has %d generated tables, the catalog %d figures", n, len(Catalog))
	}
}
