package caf

import (
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
// free lists, the runtime's free goroutines and the idle runners, and the
// large run goes before the small one, which leaves fewer runners idle than
// it found (pgas's park), so none of them is counted.
func setupMallocsPerImage(t *testing.T, opts Options, body func(*Image)) float64 {
	t.Helper()
	const lo, hi = 64, 256
	runMallocs(t, hi, opts, body)
	large := runMallocs(t, hi, opts, body)
	small := runMallocs(t, lo, opts, body)
	return (float64(large) - float64(small)) / (hi - lo)
}

// TestWorldSetupAllocs: a world's set-up costs an image the program's own
// handles and a small constant, on every transport. Every layer's per-rank
// state is an element of a table the world builds once, and the per-image
// scratch the runtime fills on first use — the held-lock table, a coarray's
// geometry up to rank 3, completion records, the timestamp overlay of the
// start-up allocations, a collective's staging — starts in storage the image
// already owns. The body is the DHT's set-up and first update: three
// coarrays and a lock (its four handles), one acquire and release of the
// next image's lock, SyncAll. The constant is the partition's page table,
// which the qnode's store makes and the lock word's store, above the 1 MiB
// non-symmetric area, grows, and half a malloc of slack.
func TestWorldSetupAllocs(t *testing.T) {
	defer pgas.PauseGC()()
	const handles, constant = 4, 2.5
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
		if per > handles+constant {
			t.Errorf("a DHT-shaped set-up costs %.2f mallocs per image, want <= %g (its %d handles and %g more)", per, handles+constant, handles, constant)
		}
		t.Logf("%.2f mallocs per image for three Allocates, a NewLock, an acquire and release and a SyncAll", per)
	})
}
