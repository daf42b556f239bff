package conformance

import (
	"testing"

	"cafshmem/internal/caf"
)

// TestConformance runs the semantic battery against every transport, one
// subtest per Cases() entry, so a hang fails go test's timeout naming the
// transport's running subtests.
func TestConformance(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) { RunBattery(t, c) })
	}
}

// TestConformanceSanitized runs the battery once more per transport under the
// runtime sanitizer, which must find nothing in it: the battery's programs are
// the portable contract, so every one of them is correctly completed,
// balanced and collective on every transport.
func TestConformanceSanitized(t *testing.T) {
	for _, c := range Cases() {
		opts := c.Opts
		c.Opts = func() caf.Options {
			o := opts()
			o.Sanitize = true
			return o
		}
		t.Run(c.Name, func(t *testing.T) { RunBattery(t, c) })
	}
}
