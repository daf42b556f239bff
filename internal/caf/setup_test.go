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
// and 512 images: what every image adds to a world's set-up, with what a world
// costs whatever its size taken out. A first run at 512 images fills the page
// pools and the runtime's free goroutines, so neither is counted.
func setupMallocsPerImage(t *testing.T, opts Options, body func(*Image)) float64 {
	t.Helper()
	const lo, hi = 64, 512
	runMallocs(t, hi, opts, body)
	small := runMallocs(t, lo, opts, body)
	large := runMallocs(t, hi, opts, body)
	return (float64(large) - float64(small)) / (hi - lo)
}

// TestWorldSetupAllocs: every layer's per-rank state is an element of a table
// the world builds once, so an image costs a world's set-up a few mallocs on
// every transport — its goroutine's closure and, on SHMEM, the timestamp
// records of the start-up allocations' touches — and a collective Allocate or
// NewLock costs an image its descriptor and, for a coarray, the one slab of its
// geometry.
func TestWorldSetupAllocs(t *testing.T) {
	if pgas.RaceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what is put into it, and the partitions borrow their pages from one")
	}
	defer pgas.PauseGC()()
	eachTransport(t, func(t *testing.T, opts Options) {
		empty := setupMallocsPerImage(t, opts, func(*Image) {})
		if empty > 4 {
			t.Errorf("an empty world costs %.2f mallocs per image, want <= 4", empty)
		}
		full := setupMallocsPerImage(t, opts, func(img *Image) {
			Allocate[int64](img, 8)
			Allocate[float64](img, 4, 4)
			Allocate[int32](img, 2, 3, 4)
			NewLock(img)
		})
		if per := (full - empty) / 4; per > 2 {
			t.Errorf("three Allocates and a NewLock cost %.2f mallocs per image each (%.2f in all, %.2f for the empty world), want <= 2", per, full, empty)
		}
		t.Logf("%.2f mallocs per image for an empty world, %.2f with three Allocates and a NewLock", empty, full)
	})
}
