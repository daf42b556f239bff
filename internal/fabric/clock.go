package fabric

// Clock is a per-PE virtual clock measured in nanoseconds.
//
// Every processing element (PE) owns exactly one Clock and is the only
// goroutine that advances it. Cross-PE causality is established by passing
// timestamps through synchronised structures (barriers, watched memory words,
// lock hand-offs) and merging them with MergeAtLeast, in the style of Lamport
// clocks. All latencies, bandwidths and execution times reported by the
// benchmark harnesses derive from these clocks, which makes results
// deterministic and independent of host load.
type Clock struct {
	ns float64
}

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() float64 { return c.ns }

// Advance moves the clock forward by d nanoseconds. Negative durations are
// ignored so cost functions may safely return zero or rounded-down values.
func (c *Clock) Advance(d float64) {
	if d > 0 {
		c.ns += d
	}
}

// MergeAtLeast raises the clock to t if t is in the future. It implements the
// receive half of a Lamport-clock update: an event that becomes visible at
// virtual time t cannot be observed before t.
func (c *Clock) MergeAtLeast(t float64) {
	if t > c.ns {
		c.ns = t
	}
}

// Reset sets the clock back to zero. Harnesses use it between measurement
// phases so that a warm-up does not pollute the measured interval.
func (c *Clock) Reset() { c.ns = 0 }

// Micros returns the current virtual time in microseconds.
func (c *Clock) Micros() float64 { return c.ns / 1e3 }
