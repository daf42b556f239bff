package caf

import (
	"math"
	"runtime"
	"testing"

	"cafshmem/internal/pgas"
)

// runMallocs returns the process-wide mallocs of one Run of n images.
func runMallocs(t *testing.T, n int, opts Options, body func(*Image)) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := Run(n, opts, body); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// setupMallocsPerImage is the per-image slope of a Run's mallocs between 64
// and 256 images: what every image adds to a world's set-up, with what a world
// costs whatever its size taken out. A first run at 256 images fills the page
// free lists, the runtime's free goroutines and the idle runners. The slope is
// then measured in both orders, small world first and large world first,
// three times each, and the larger of the two orders' lowest slopes is
// returned: neither order may leave the next world less to take over. The
// lowest, because a run may still find a free list short of what it takes: how
// many 8-entry page tables a world's images hold at once, before their stores
// above the 1 MiB non-symmetric area grow them, follows the host schedule.
func setupMallocsPerImage(t *testing.T, opts Options, body func(*Image)) float64 {
	t.Helper()
	const lo, hi = 64, 256
	slope := func(small, large uint64) float64 { return (float64(large) - float64(small)) / (hi - lo) }
	runMallocs(t, hi, opts, body)
	smallFirst, largeFirst := math.Inf(1), math.Inf(1)
	for range 3 {
		small := runMallocs(t, lo, opts, body)
		smallFirst = min(smallFirst, slope(small, runMallocs(t, hi, opts, body)))
		large := runMallocs(t, hi, opts, body)
		largeFirst = min(largeFirst, slope(runMallocs(t, lo, opts, body), large))
	}
	return max(smallFirst, largeFirst)
}

// TestWorldSetupAllocs: a world's set-up costs an image the program's own
// handles and no more, on every transport. Every layer's per-rank state is an
// element of a table the world builds once, the per-image scratch the runtime
// fills on first use — the held-lock table, a coarray's geometry up to rank 3,
// completion records, the timestamp overlay of the start-up allocations, a
// collective's staging — starts in storage the image already owns, and the
// partition's page table, which the qnode's store makes and the lock word's
// store, above the 1 MiB non-symmetric area, grows, is one a closed world gave
// back, as is the runner the image runs on. The body is the DHT's set-up and
// first update: three coarrays and a lock (its four handles), one acquire and
// release of the next image's lock, SyncAll. The bound is the handles and
// half a malloc of slack.
func TestWorldSetupAllocs(t *testing.T) {
	defer pgas.PauseGC()()
	const handles, slack = 4, 0.5
	eachTransport(t, func(t *testing.T, opts Options) {
		per := setupMallocsPerImage(t, opts, func(img *Image) {
			Allocate[int64](img, 8)
			Allocate[float64](img, 4, 4)
			Allocate[int32](img, 2, 3, 4)
			l := NewLock(img)
			j := img.ThisImage()%img.NumImages() + 1
			l.Acquire(j)
			l.Release(j)
			img.SyncAll()
		})
		if per > handles+slack {
			t.Errorf("a DHT-shaped set-up costs %.2f mallocs per image, want <= %g (its %d handles and %g of slack)", per, handles+slack, handles, slack)
		}
		t.Logf("%.2f mallocs per image for three Allocates, a NewLock, an acquire and release and a SyncAll", per)
	})
}
