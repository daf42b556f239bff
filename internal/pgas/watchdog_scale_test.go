package pgas

import (
	"strings"
	"testing"

	"cafshmem/internal/fabric"
)

// The quiescence rule at 100k images, from both sides: a genuinely dead world
// is poisoned by its last PE to park, and a legitimate barrier release is not
// mistaken for one.

// TestDeadlock100kAllParked: a 100k-image world where every PE blocks on a
// flag nobody will ever set is poisoned as its last PE goes to sleep —
// the report counts all n of them asleep, so the verdict fell no earlier, and
// Run returning at all means it fell no later — and the report stays bounded.
func TestDeadlock100kAllParked(t *testing.T) {
	if RaceEnabled {
		t.Skip("100k images under race instrumentation is out of time budget")
	}
	if testing.Short() {
		t.Skip("100k images in -short mode")
	}
	const n = 100_000
	w, err := NewWorld(fabric.Titan(), n)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *PE) {
		// Off-word 1 of this PE's own partition is never written by anyone.
		_, _ = p.WaitUntilStat(8, 8, func([]byte) bool { return false }, nil)
	})
	if err == nil {
		t.Fatal("all-parked 100k world: no deadlock poison")
	}
	msg := err.Error()
	for _, want := range []string{
		"pgas: deadlock: all 100000 alive PEs blocked",
		"PE 0: wait [0x8,+8) = 0x0, last write t=0; PE 1: ",
		"; PE 15: wait [0x8,+8) = 0x0, last write t=0; and 99984 more (100000 in a wait, 0 in the barrier in all)",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("report lacks %q", want)
		}
	}
	if got := strings.Count(msg, ": wait ["); got != deadlockLines || len(msg) > 2048 {
		t.Errorf("report has %d PE lines in %d bytes, want %d lines and a bounded message", got, len(msg), deadlockLines)
	}
	if t.Failed() {
		t.Logf("report: %.2048s", msg)
	}
}

// TestBarrier100kReleaseClean: the other side — a legitimate 100k-image
// barrier sequence completes; a poison here is a counting bug.
func TestBarrier100kReleaseClean(t *testing.T) {
	if RaceEnabled {
		t.Skip("100k images under race instrumentation is out of time budget")
	}
	if testing.Short() {
		t.Skip("100k images in -short mode")
	}
	const n = 100_000
	w, err := NewWorld(fabric.Titan(), n)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *PE) {
		for i := 0; i < 2; i++ {
			p.Clock.Advance(100)
			p.Barrier(0, barrierCall)
		}
		if got := p.Clock.Now(); got != 200 {
			panic("wrong release time at 100k")
		}
	})
	if err != nil {
		t.Fatalf("legitimate 100k barrier run poisoned: %v", err)
	}
}
