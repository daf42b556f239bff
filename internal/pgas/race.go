//go:build race

package pgas

// RaceEnabled reports whether the race detector is compiled in. Only tests
// read it: the allocation ceilings and the 100k-image worlds skip under
// instrumentation.
const RaceEnabled = true
