package pgasbench

import (
	"runtime"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// seriesBytes returns what one call of series allocates once a first call
// has warmed the page free lists and the shared payload. The collector is
// paused over both calls, so what the runtime keeps does not move between.
func seriesBytes(t *testing.T, series func() error) uint64 {
	t.Helper()
	defer pgas.PauseGC()()
	var before, after runtime.MemStats
	for range 2 {
		runtime.ReadMemStats(&before)
		if err := series(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
	}
	return after.TotalAlloc - before.TotalAlloc
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
	mv2xConfig := config{mv2x, caf.UHCAFOverMV2XSHMEM()}
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
		{"cafContigPut", 1 << 20, func() error { _, err := cafContigPut(mv2xConfig, 1); return err }},
		{"cafStridedPut", 1 << 20, func() error { _, err := cafStridedPut(mv2xConfig, 1); return err }},
		{"cafMatrixPut", 1 << 20, func() error { _, err := cafMatrixPut(mv2xConfig, 1); return err }},
	} {
		if got := seriesBytes(t, c.series); got > c.ceiling {
			t.Errorf("%s: %d KiB allocated per series, ceiling %d KiB", c.name, got>>10, c.ceiling>>10)
		} else {
			t.Logf("%s: %d KiB per series", c.name, got>>10)
		}
	}
}
