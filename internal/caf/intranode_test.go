package caf

import (
	"fmt"
	"testing"

	"cafshmem/internal/fabric"
)

// §VII future work: intra-node accesses as direct load/store via shmem_ptr.

func TestIntraNodeDirectCorrectness(t *testing.T) {
	o := shmemOpts()
	o.IntraNodeDirect = true
	err := Run(4, o, func(img *Image) { // all four images on one node
		c := Allocate[int64](img, 8)
		next := img.ThisImage()%img.NumImages() + 1
		c.PutElem(next, int64(img.ThisImage()), 3)
		img.SyncAll()
		prev := (img.ThisImage()+img.NumImages()-2)%img.NumImages() + 1
		if c.At(3) != int64(prev) {
			panic("direct put landed wrong")
		}
		if v := c.GetElem(next, 3); v != int64(img.ThisImage()) {
			panic("direct get wrong")
		}
		if img.Stats.DirectOps == 0 {
			panic("intra-node accesses should have used the direct path")
		}
		if img.Stats.Puts != 0 {
			panic("no library puts expected for same-node contiguous accesses")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntraNodeDirectCrossNodeFallsBack(t *testing.T) {
	o := shmemOpts()
	o.IntraNodeDirect = true
	err := Run(17, o, func(img *Image) { // image 17 on node 1
		c := Allocate[int64](img, 4)
		if img.ThisImage() == 1 {
			c.PutElem(17, 42, 0) // cross-node: must use the library path
			if img.Stats.DirectOps != 0 {
				panic("cross-node access must not use direct load/store")
			}
			if img.Stats.Puts != 1 {
				panic("cross-node access should be a library put")
			}
		}
		img.SyncAll()
		if img.ThisImage() == 17 && c.At(0) != 42 {
			panic("cross-node put lost")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntraNodeDirectUnsupportedOnGASNet(t *testing.T) {
	o := gasnetOpts()
	o.IntraNodeDirect = true // requested but impossible: no shmem_ptr
	err := Run(2, o, func(img *Image) {
		c := Allocate[int64](img, 4)
		if img.ThisImage() == 1 {
			c.PutElem(2, 7, 0)
			if img.Stats.DirectOps != 0 {
				panic("GASNet transport cannot do direct access")
			}
		}
		img.SyncAll()
		if img.ThisImage() == 2 && c.At(0) != 7 {
			panic("fallback put lost")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIntraNodeDirectCheaper(t *testing.T) {
	measure := func(direct bool) float64 {
		o := UHCAFOverCraySHMEM(fabric.CrayXC30())
		o.IntraNodeDirect = direct
		var cost float64
		err := Run(2, o, func(img *Image) {
			c := Allocate[byte](img, 4096)
			img.SyncAll()
			img.Clock().Reset()
			if img.ThisImage() == 1 {
				for i := 0; i < 20; i++ {
					c.PutFull(2, make([]byte, 4096))
					_ = c.GetFull(2)
				}
				cost = img.Clock().Now()
			}
			img.SyncAll()
		})
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	viaLib := measure(false)
	directly := measure(true)
	if directly >= viaLib/2 {
		t.Fatalf("direct intra-node access (%v ns) should be far cheaper than library calls (%v ns)", directly, viaLib)
	}
}

func TestIntraNodeDirectSectionFastPath(t *testing.T) {
	o := shmemOpts()
	o.IntraNodeDirect = true
	err := Run(2, o, func(img *Image) {
		c := Allocate[int64](img, 4, 4)
		if img.ThisImage() == 1 {
			// Fully contiguous section: direct path.
			c.Put(2, All(4, 4), make([]int64, 16))
			if img.Stats.DirectOps == 0 {
				panic("contiguous section should go direct")
			}
			before := img.Stats.StridedCalls
			// Strided section: still the library path (only contiguous
			// accesses are load/store-able in this design).
			c.Put(2, Section{{0, 3, 2}, {0, 3, 2}}, make([]int64, 4))
			if img.Stats.StridedCalls == before {
				panic("strided section should use the library")
			}
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A contiguous section put served by a direct store is complete at return,
// like PutElem's: it pays the direct access, to the nanosecond, and no §IV-B
// quiet behind it.
func TestIntraNodeDirectSectionPutOwesNoQuiet(t *testing.T) {
	o := shmemOpts()
	o.IntraNodeDirect = true
	err := Run(2, o, func(img *Image) {
		c := Allocate[int64](img, 4, 4)
		img.SyncAll()
		if img.ThisImage() == 1 {
			vals := make([]int64, 16)
			quiets, direct, before := img.Stats.Quiets, img.Stats.DirectOps, img.Clock().Now()
			c.Put(2, All(4, 4), vals)
			want := before + (directIssueNs + float64(len(vals)*8)*img.prof.IntraGapNsPerByte/2)
			if got := img.Clock().Now(); got != want {
				panic(fmt.Sprintf("direct section put moved the clock %v -> %v, want %v", before, got, want))
			}
			if img.Stats.Quiets != quiets || img.Stats.DirectOps != direct+1 {
				panic(fmt.Sprintf("direct section put: %d quiets and %d direct ops, want 0 and 1",
					img.Stats.Quiets-quiets, img.Stats.DirectOps-direct))
			}
		}
		img.SyncAll()
		if img.ThisImage() == 2 && c.At(3, 3) != 0 {
			panic("direct section put landed wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
