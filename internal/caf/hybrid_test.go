package caf

import (
	"testing"

	"cafshmem/internal/shmem"
)

// The hybrid CAF+OpenSHMEM model of the paper's §I: raw shmem calls mixed
// into a CAF program, sharing the symmetric heap and synchronisation.

func TestHybridHandleAvailability(t *testing.T) {
	err := Run(2, shmemOpts(), func(img *Image) {
		if img.SHMEM() == nil {
			panic("SHMEM handle must be available on the shmem transport")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	err = Run(2, gasnetOpts(), func(img *Image) {
		if img.SHMEM() != nil {
			panic("SHMEM handle must be nil on the GASNet transport")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHybridShmemIntoCoarray(t *testing.T) {
	// A raw shmem_put can target coarray storage (same symmetric heap), and
	// CAF-level synchronisation covers it. The sanitizer runs: a view of a
	// coarray's storage lies inside a live allocation, so it is a good handle.
	opts := shmemOpts()
	opts.Sanitize = true
	err := Run(2, opts, func(img *Image) {
		c := Allocate[int64](img, 4)
		pe := img.SHMEM()
		if img.ThisImage() == 1 {
			// shmem-level view of the coarray storage.
			sym := shmem.Sym{Off: c.off, Size: int64(c.n * c.es)}
			shmem.Put(pe, 1, sym, 2, []int64{777}) // PE 1 == image 2
		}
		img.SyncAll()
		if img.ThisImage() == 2 {
			if c.At(2) != 777 {
				panic("raw shmem put did not land in coarray storage")
			}
		}
		img.SyncAll()
		c.Deallocate()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHybridAtomicsAndCollectives(t *testing.T) {
	// Raw shmem atomics and collectives interleaved with CAF operations;
	// clocks and completion states are shared, so no extra synchronisation
	// model is needed.
	err := Run(4, shmemOpts(), func(img *Image) {
		pe := img.SHMEM()
		ctr := pe.Malloc(8)
		pe.FetchAdd(0, ctr, 0, 1) // shmem atomic into PE 0
		img.SyncAll()             // CAF-side barrier completes it
		if img.ThisImage() == 1 {
			if got := shmem.G[int64](pe, 0, ctr, 0); got != 4 {
				panic("hybrid atomic count wrong")
			}
		}
		// CAF collective after raw shmem traffic.
		sum := []int64{1}
		if CoSum(img, sum, 0); sum[0] != 4 {
			panic("co_sum after hybrid traffic wrong")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHybridClockShared(t *testing.T) {
	// The virtual clock is one and the same through both APIs.
	err := Run(2, shmemOpts(), func(img *Image) {
		pe := img.SHMEM()
		before := img.Clock().Now()
		sym := pe.Malloc(64)
		pe.PutMem((img.ThisImage())%2, sym, 0, make([]byte, 64))
		pe.Quiet()
		if img.Clock().Now() <= before {
			panic("raw shmem traffic must advance the image clock")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}
