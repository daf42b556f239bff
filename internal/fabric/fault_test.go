package fabric

import (
	"reflect"
	"testing"
)

func TestFaultPlanEmpty(t *testing.T) {
	var nilPlan *FaultPlan
	if !nilPlan.Empty() {
		t.Error("nil plan should be empty")
	}
	if _, ok := nilPlan.KillTime(0); ok {
		t.Error("nil plan should kill nobody")
	}
	if p := nilPlan.LinkPenaltyNs(0, 1e9); p != 0 {
		t.Errorf("nil plan penalty = %v, want 0", p)
	}
	if (&FaultPlan{}).Empty() != true {
		t.Error("zero plan should be empty")
	}
}

func TestFaultPlanKillTime(t *testing.T) {
	fp := &FaultPlan{Kills: []FaultEvent{{PE: 2, AtNs: 500}, {PE: 2, AtNs: 100}, {PE: 5, AtNs: 900}}}
	if at, ok := fp.KillTime(2); !ok || at != 100 {
		t.Errorf("KillTime(2) = %v, %v; want 100, true (earliest event wins)", at, ok)
	}
	if at, ok := fp.KillTime(5); !ok || at != 900 {
		t.Errorf("KillTime(5) = %v, %v; want 900, true", at, ok)
	}
	if _, ok := fp.KillTime(0); ok {
		t.Error("KillTime(0) should report no kill")
	}
	if got := fp.Victims(); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Errorf("Victims = %v, want [2 5]", got)
	}
}

func TestFaultPlanLinkPenalty(t *testing.T) {
	fp := &FaultPlan{Links: []LinkDegrade{
		{PE: 1, AtNs: 1000, PenaltyNs: 50},
		{PE: 1, AtNs: 2000, PenaltyNs: 25},
		{PE: 3, AtNs: 0, PenaltyNs: 10},
	}}
	if p := fp.LinkPenaltyNs(1, 500); p != 0 {
		t.Errorf("penalty before onset = %v, want 0", p)
	}
	if p := fp.LinkPenaltyNs(1, 1500); p != 50 {
		t.Errorf("penalty after first onset = %v, want 50", p)
	}
	if p := fp.LinkPenaltyNs(1, 2500); p != 75 {
		t.Errorf("penalties should accumulate: got %v, want 75", p)
	}
	if p := fp.LinkPenaltyNs(3, 0); p != 10 {
		t.Errorf("penalty at exact onset = %v, want 10", p)
	}
	if p := fp.LinkPenaltyNs(2, 1e12); p != 0 {
		t.Errorf("unlisted PE penalty = %v, want 0", p)
	}
}

// TestLinkPenaltyWindows pins the window semantics of bounded degradations:
// active iff AtNs <= now < UntilNs, zero-width windows never active,
// overlapping windows on the same instant accumulate.
func TestLinkPenaltyWindows(t *testing.T) {
	fp := &FaultPlan{Links: []LinkDegrade{
		{PE: 1, AtNs: 1000, UntilNs: 2000, PenaltyNs: 50},
		{PE: 1, AtNs: 1500, UntilNs: 2500, PenaltyNs: 30}, // overlaps the first
		{PE: 1, AtNs: 3000, UntilNs: 3000, PenaltyNs: 99}, // zero-width
		{PE: 1, AtNs: 4000, PenaltyNs: 7},                 // open-ended
	}}
	cases := []struct {
		now  float64
		want float64
	}{
		{999.9999, 0}, // just before onset
		{1000, 50},    // inclusive lower boundary
		{1499, 50},    // only first window
		{1500, 80},    // overlap: both accumulate on the same ns
		{1999, 80},    // still overlapping
		{2000, 30},    // exclusive upper boundary: first window closed
		{2499, 30},    // second window alone
		{2500, 0},     // both closed
		{3000, 0},     // zero-width window never fires, even at its instant
		{4000, 7},     // open-ended onset
		{1e15, 7},     // open-ended never closes
	}
	for _, c := range cases {
		if got := fp.LinkPenaltyNs(1, c.now); got != c.want {
			t.Errorf("LinkPenaltyNs(1, %v) = %v, want %v", c.now, got, c.want)
		}
	}
	// Property sweep: the penalty is always the sum of active windows, and
	// boundary behaviour is half-open everywhere on a dense grid.
	for now := 0.0; now <= 5000; now += 12.5 {
		want := 0.0
		for _, l := range fp.Links {
			if now >= l.AtNs && (l.UntilNs == 0 || now < l.UntilNs) {
				want += l.PenaltyNs
			}
		}
		if got := fp.LinkPenaltyNs(1, now); got != want {
			t.Fatalf("LinkPenaltyNs(1, %v) = %v, want %v", now, got, want)
		}
	}
}

// TestLinkPenaltyWindowBackCompat: plans written before UntilNs existed
// (zero value) keep their open-ended from-AtNs-onward meaning.
func TestLinkPenaltyWindowBackCompat(t *testing.T) {
	old := &FaultPlan{Links: []LinkDegrade{{PE: 2, AtNs: 100, PenaltyNs: 5}}}
	for _, now := range []float64{100, 101, 1e6, 1e12} {
		if got := old.LinkPenaltyNs(2, now); got != 5 {
			t.Fatalf("open-ended penalty at %v = %v, want 5", now, got)
		}
	}
	if got := old.LinkPenaltyNs(2, 99.999); got != 0 {
		t.Fatalf("penalty before onset = %v, want 0", got)
	}
}

func TestRandomPlanDeterministic(t *testing.T) {
	a := RandomPlan(0xdecafbad, 8, 3, 1000, 50000)
	b := RandomPlan(0xdecafbad, 8, 3, 1000, 50000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed must yield the same plan:\n%v\n%v", a, b)
	}
	c := RandomPlan(0xdecafbad+1, 8, 3, 1000, 50000)
	if reflect.DeepEqual(a.Kills, c.Kills) {
		t.Error("different seeds should (overwhelmingly) yield different plans")
	}
}

func TestRandomPlanBounds(t *testing.T) {
	for seed := uint64(1); seed < 50; seed++ {
		fp := RandomPlan(seed, 6, 2, 100, 200)
		if len(fp.Kills) != 2 {
			t.Fatalf("seed %d: %d kills, want 2", seed, len(fp.Kills))
		}
		seen := map[int]bool{}
		for _, k := range fp.Kills {
			if k.PE < 1 || k.PE >= 6 {
				t.Fatalf("seed %d: victim %d out of range [1,6)", seed, k.PE)
			}
			if seen[k.PE] {
				t.Fatalf("seed %d: duplicate victim %d", seed, k.PE)
			}
			seen[k.PE] = true
			if k.AtNs < 100 || k.AtNs >= 200 {
				t.Fatalf("seed %d: kill time %v out of [100,200)", seed, k.AtNs)
			}
		}
	}
	// Kills are capped at npes-1 (PE 0 is always spared).
	fp := RandomPlan(7, 4, 99, 0, 1)
	if len(fp.Kills) != 3 {
		t.Errorf("kills should cap at npes-1=3, got %d", len(fp.Kills))
	}
	// Degenerate worlds yield empty plans rather than panicking.
	if !RandomPlan(7, 1, 1, 0, 1).Empty() {
		t.Error("single-PE world should yield an empty plan")
	}
}
