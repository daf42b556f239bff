package fabric

import (
	"testing"
	"testing/quick"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock reads %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(100)
	c.Advance(250)
	if got := c.Now(); got != 350 {
		t.Fatalf("Now() = %v, want 350", got)
	}
}

func TestClockAdvanceIgnoresNegative(t *testing.T) {
	var c Clock
	c.Advance(100)
	c.Advance(-50)
	if got := c.Now(); got != 100 {
		t.Fatalf("Now() = %v after negative advance, want 100", got)
	}
}

func TestClockMergeAtLeast(t *testing.T) {
	var c Clock
	c.Advance(100)
	c.MergeAtLeast(80) // in the past: no effect
	if c.Now() != 100 {
		t.Fatalf("merge with past timestamp moved clock to %v", c.Now())
	}
	c.MergeAtLeast(500)
	if c.Now() != 500 {
		t.Fatalf("merge with future timestamp gave %v, want 500", c.Now())
	}
}

func TestClockReset(t *testing.T) {
	var c Clock
	c.Advance(42)
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("Reset left clock at %v", c.Now())
	}
}

func TestClockUnits(t *testing.T) {
	var c Clock
	c.Advance(2.5e9)
	if c.Micros() != 2.5e6 {
		t.Fatalf("Micros() = %v, want 2.5e6", c.Micros())
	}
}

// Property: a clock never goes backwards under any interleaving of Advance
// and MergeAtLeast.
func TestClockMonotonicProperty(t *testing.T) {
	f := func(steps []float64, merges []float64) bool {
		var c Clock
		prev := 0.0
		for i := 0; i < len(steps) || i < len(merges); i++ {
			if i < len(steps) {
				c.Advance(steps[i])
			}
			if i < len(merges) {
				c.MergeAtLeast(merges[i])
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MergeAtLeast is idempotent and commutes with itself.
func TestClockMergeIdempotent(t *testing.T) {
	f := func(a, b float64) bool {
		var c1, c2 Clock
		c1.MergeAtLeast(a)
		c1.MergeAtLeast(b)
		c2.MergeAtLeast(b)
		c2.MergeAtLeast(a)
		c2.MergeAtLeast(a)
		return c1.Now() == c2.Now()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
