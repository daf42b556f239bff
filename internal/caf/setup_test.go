package caf

import (
	"math"
	"runtime"
	"testing"

	"cafshmem/internal/pgas"
)

// memCounter reads one process-wide allocation counter: mallocs or bytes.
type memCounter func(*runtime.MemStats) uint64

func mallocs(m *runtime.MemStats) uint64    { return m.Mallocs }
func allocBytes(m *runtime.MemStats) uint64 { return m.TotalAlloc }

// runCount returns what one Run of n images adds to the counter.
func runCount(t *testing.T, n int, opts Options, count memCounter, body func(*Image)) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := Run(n, opts, body); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return count(&after) - count(&before)
}

// setupMallocsPerImage is setupPerImage's mallocs between 64 and 256 images.
func setupMallocsPerImage(t *testing.T, opts Options, body func(*Image)) float64 {
	t.Helper()
	return setupPerImage(t, opts, 64, 256, mallocs, body)
}

// setupPerImage is the per-image slope of a Run's count between lo and hi
// images: what every image adds to a world's set-up, with what a world costs
// whatever its size taken out. A first run at hi images fills the page free
// lists, the runtime's free goroutines and the idle runners. The slope is
// then measured in both orders, small world first and large world first,
// three times each, and the larger of the two orders' lowest slopes is
// returned: neither order may leave the next world less to take over. The
// lowest, because a run may still find a free list short of what it takes: how
// many 8-entry page tables a world's images hold at once, before their stores
// above the 1 MiB non-symmetric area grow them, follows the host schedule.
func setupPerImage(t *testing.T, opts Options, lo, hi int, count memCounter, body func(*Image)) float64 {
	t.Helper()
	slope := func(small, large uint64) float64 { return (float64(large) - float64(small)) / float64(hi-lo) }
	run := func(n int) uint64 { return runCount(t, n, opts, count, body) }
	run(hi)
	smallFirst, largeFirst := math.Inf(1), math.Inf(1)
	for range 3 {
		small := run(lo)
		smallFirst = min(smallFirst, slope(small, run(hi)))
		large := run(hi)
		largeFirst = min(largeFirst, slope(run(lo), large))
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

// TestSignalSetupAllocs: point-to-point synchronisation state grows with the
// partners an image uses, not with the world, on every transport. The body is
// a 1-D halo's: a Signal, one notify and wait with each ring neighbour, then a
// SyncImages with both. It costs an image one malloc, the Signal's handle —
// both neighbours' sequences live in the handle's partner table, and sync
// images' in the image's — with half a malloc of slack. Its bytes per image
// measured between 256 and 1024 images are at most those between 64 and 256,
// plus 128 B: a per-image table of world size would add 16 B per image per
// image, about 15 KiB between the two.
func TestSignalSetupAllocs(t *testing.T) {
	defer pgas.PauseGC()()
	const handles, slack, byteSlack = 1, 0.5, 128
	body := func(img *Image) {
		sig := NewSignal(img)
		me, n := img.ThisImage(), img.NumImages()
		left, right := (me+n-2)%n+1, me%n+1
		sig.Notify(left)
		sig.Notify(right)
		sig.Wait(left)
		sig.Wait(right)
		img.SyncImages(left, right)
	}
	eachTransport(t, func(t *testing.T, opts Options) {
		if per := setupMallocsPerImage(t, opts, body); per > handles+slack {
			t.Errorf("a signal and sync-images set-up costs %.2f mallocs per image, want <= %g (its handle and %g of slack)", per, handles+slack, slack)
		} else {
			t.Logf("%.2f mallocs per image", per)
		}
		small := setupPerImage(t, opts, 64, 256, allocBytes, body)
		large := setupPerImage(t, opts, 256, 1024, allocBytes, body)
		if large > small+byteSlack {
			t.Errorf("a signal and sync-images set-up costs %.0f B per image between 256 and 1024 images, %.0f B between 64 and 256: it grows with the world", large, small)
		}
		t.Logf("%.0f B per image between 64 and 256 images, %.0f B between 256 and 1024", small, large)
	})
}
