package pgasbench

import (
	"runtime"
	"slices"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// seriesBytes returns what one call of series allocates once a first call
// has warmed the page pools and the shared payload: the median of five, so a
// collection that empties the pools mid-run does not decide the verdict.
func seriesBytes(t *testing.T, series func() error) uint64 {
	t.Helper()
	var samples [5]uint64
	for i := -1; i < len(samples); i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := series(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 0 {
			samples[i] = after.TotalAlloc - before.TotalAlloc
		}
	}
	slices.Sort(samples[:])
	return samples[len(samples)/2]
}

// TestSeriesSteadyStateAllocs keeps the figure harnesses from growing their
// buffers back. A put series over the large sizes moves up to 4 MiB per
// message between 32 PEs; it used to allocate a 4 MiB payload on every PE
// (128 MiB a series) and fresh pages for whatever landed (4 MiB and up). Now
// the payload is shared and read-only, a byte coarray's values go to the
// transport as they stand, and the pages are recycled from the previous
// series' world: what remains is world set-up, a few tens of KiB — plus, for
// gets, the one 4 MiB destination of the one rank that issues them.
func TestSeriesSteadyStateAllocs(t *testing.T) {
	if pgas.RaceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what is put into it")
	}
	raw := RawPutConfig{
		Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM,
		Library: LibSHMEM, Pairs: 1, Sizes: LargeSizes, Iters: 3,
	}
	for _, c := range []struct {
		name    string
		ceiling uint64
		series  func() error
	}{
		{"PutBandwidth/shmem", 1 << 20, func() error { _, err := PutBandwidth(raw); return err }},
		{"GetBandwidth/shmem", 5 << 20, func() error { _, err := GetBandwidth(raw); return err }},
		{"CAFContigBandwidth", 1 << 20, func() error {
			_, err := CAFContigBandwidth(CAFPutConfig{Opts: caf.UHCAFOverMV2XSHMEM(), Pairs: 1}, LargeSizes)
			return err
		}},
	} {
		if got := seriesBytes(t, c.series); got > c.ceiling {
			t.Errorf("%s: %d KiB allocated per series, ceiling %d KiB", c.name, got>>10, c.ceiling>>10)
		} else {
			t.Logf("%s: %d KiB per series", c.name, got>>10)
		}
	}
}
