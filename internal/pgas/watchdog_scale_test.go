package pgas

import (
	"strings"
	"testing"
	"time"

	"cafshmem/internal/fabric"
)

// Satellite coverage for the 100k-image stall-budget recalibration: the old
// linear 25µs/PE term gave a 100k event-engine world a multi-second budget —
// long enough to mask real deadlocks — while the sharded release actually
// needs one sequential dispatch pass plus a pool drain. These tests pin the
// sub-linear form from both sides: a genuinely dead 100k world is poisoned
// promptly, and a legitimate 100k barrier release is not.

// TestStallBudgetSubLinear pins the budget formula itself: the event engine's
// per-PE term must stay sub-linear (a 100k single-worker world under a
// second without race instrumentation), and the goroutine engine keeps its
// historical linear form.
func TestStallBudgetSubLinear(t *testing.T) {
	ev := &World{n: 100_000, engine: EngineEvent, workers: 1}
	budget := ev.stallBudget()
	cap := 1 * time.Second
	if RaceEnabled {
		cap *= 8
	}
	if budget >= cap {
		t.Fatalf("100k event-engine stall budget = %v, want < %v (sub-linear per-PE term)", budget, cap)
	}
	if budget <= stallRealDelay {
		t.Fatalf("100k event-engine stall budget = %v, must still exceed the %v base", budget, stallRealDelay)
	}
	gr := &World{n: 1000, engine: EngineGoroutine}
	want := stallRealDelay + 1000*25*time.Microsecond
	if RaceEnabled {
		want *= 8
	}
	if got := gr.stallBudget(); got != want {
		t.Fatalf("goroutine-engine budget changed: %v, want %v", got, want)
	}
	// More workers drain the pool faster, so the budget must not grow.
	wide := &World{n: 100_000, engine: EngineEvent, workers: 64}
	if wide.stallBudget() > budget {
		t.Fatalf("budget grew with workers: %v (64 workers) > %v (1 worker)", wide.stallBudget(), budget)
	}
}

// TestWatchdog100kAllParked: a 100k-image event-engine world where every PE
// blocks on a flag nobody will ever set must be poisoned by the hang
// watchdog within the recalibrated budget — the deadlock-masking side of the
// satellite requirement.
func TestWatchdog100kAllParked(t *testing.T) {
	if RaceEnabled {
		t.Skip("100k images under race instrumentation is out of time budget")
	}
	if testing.Short() {
		t.Skip("100k images in -short mode")
	}
	const n = 100_000
	w, err := NewWorldOpts(fabric.Titan(), n, Options{Engine: EngineEvent})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = w.Run(func(p *PE) {
		// Off-word 1 of this PE's own partition is never written by anyone.
		_, _ = p.WaitUntilStat(8, 8, func([]byte) bool { return false }, nil)
	})
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "hang watchdog") {
		t.Fatalf("all-parked 100k world: err = %v, want hang-watchdog poison", err)
	}
	// Budget (~0.4s) + ramp-up of 100k goroutines + watchdog tick slack. The
	// old linear budget alone was >5s; anything in that regime means the
	// sub-linear form regressed.
	if limit := 30 * time.Second; elapsed > limit {
		t.Fatalf("poison took %v, want < %v", elapsed, limit)
	}
}

// TestBarrier100kReleaseClean: the other side — a legitimate 100k-image
// event-engine barrier sequence must complete watchdog-clean within the
// tightened budget (the release's dispatch pass plus pool drain must fit).
func TestBarrier100kReleaseClean(t *testing.T) {
	if RaceEnabled {
		t.Skip("100k images under race instrumentation is out of time budget")
	}
	if testing.Short() {
		t.Skip("100k images in -short mode")
	}
	const n = 100_000
	w, err := NewWorldOpts(fabric.Titan(), n, Options{Engine: EngineEvent})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *PE) {
		for i := 0; i < 2; i++ {
			p.Clock.Advance(100)
			p.Barrier(0)
		}
		if got := p.Clock.Now(); got != 200 {
			panic("wrong release time at 100k")
		}
	})
	if err != nil {
		t.Fatalf("legitimate 100k barrier run poisoned: %v", err)
	}
}
