package caf

import (
	"strings"
	"testing"
)

// avail reports the non-symmetric buffer's free bytes remaining: what a test
// compares before and after to see that nothing leaked.
func (a *nsAlloc) avail() int64 {
	var t int64
	for _, s := range a.free {
		t += s.size
	}
	return t
}

func TestDynCoarrayDifferentSizesPerImage(t *testing.T) {
	// The whole point of §IV-A's non-symmetric mechanism: components of
	// different sizes on different images, all remotely accessible.
	forEachTransport(t, 4, func(img *Image) {
		d := AllocateDyn[int64](img)
		me := img.ThisImage()
		n := me * 3 // sizes 3, 6, 9, 12
		d.AllocLocal(n)
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(me*100 + i)
		}
		d.SetLocal(0, vals)
		img.SyncAll()

		// Every image reads every other image's component.
		for j := 1; j <= img.NumImages(); j++ {
			if got := d.RemoteLen(j); got != j*3 {
				panic("remote length wrong")
			}
			data := d.Get(j, 0, j*3)
			for i, v := range data {
				if v != int64(j*100+i) {
					panic("remote component data wrong")
				}
			}
		}
		img.SyncAll()
	})
}

func TestDynCoarrayRemotePut(t *testing.T) {
	err := Run(3, shmemOpts(), func(img *Image) {
		d := AllocateDyn[float64](img)
		if img.ThisImage() == 2 {
			d.AllocLocal(8)
		}
		img.SyncAll()
		if img.ThisImage() == 1 {
			d.Put(2, 4, []float64{1.5, 2.5})
		}
		img.SyncAll()
		if img.ThisImage() == 2 {
			got := d.LocalSlice()
			if got[4] != 1.5 || got[5] != 2.5 {
				panic("remote put into component lost")
			}
			if got[0] != 0 {
				panic("remote put polluted untouched elements")
			}
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDynCoarrayUnallocatedAccess(t *testing.T) {
	err := Run(2, shmemOpts(), func(img *Image) {
		d := AllocateDyn[int64](img)
		img.SyncAll()
		if img.ThisImage() == 1 {
			if d.RemoteLen(2) != 0 {
				panic("unallocated component should report length 0")
			}
			d.Get(2, 0, 1) // must panic
		}
	})
	if err == nil || !strings.Contains(err.Error(), "not allocated") {
		t.Fatalf("expected unallocated-access panic, got %v", err)
	}
}

func TestDynCoarrayLifecycle(t *testing.T) {
	err := Run(1, shmemOpts(), func(img *Image) {
		d := AllocateDyn[int64](img)
		if d.Allocated() {
			panic("fresh component should be unallocated")
		}
		before := img.nonsym.avail()
		d.AllocLocal(16)
		if !d.Allocated() || d.LocalLen() != 16 {
			panic("allocation state wrong")
		}
		d.SetLocal(2, []int64{7})
		if d.LocalSlice()[2] != 7 {
			panic("local component store lost")
		}
		d.FreeLocal()
		if d.Allocated() || d.LocalLen() != 0 {
			panic("deallocation state wrong")
		}
		if img.nonsym.avail() != before {
			panic("component space leaked")
		}
		// Reallocation works.
		d.AllocLocal(4)
		d.FreeLocal()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDynCoarrayBounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		body func(img *Image, d *DynCoarray[int64])
	}{
		{"zero alloc", func(img *Image, d *DynCoarray[int64]) { d.AllocLocal(0) }},
		{"double alloc", func(img *Image, d *DynCoarray[int64]) { d.AllocLocal(4); d.AllocLocal(4) }},
		{"free unallocated", func(img *Image, d *DynCoarray[int64]) { d.FreeLocal() }},
		{"local oob", func(img *Image, d *DynCoarray[int64]) { d.AllocLocal(4); d.SetLocal(3, []int64{1, 2}) }},
		{"remote oob", func(img *Image, d *DynCoarray[int64]) {
			d.AllocLocal(4)
			img.SyncAll()
			d.Get(1, 2, 3)
		}},
	} {
		err := Run(1, shmemOpts(), func(img *Image) {
			d := AllocateDyn[int64](img)
			tc.body(img, d)
		})
		if err == nil {
			t.Fatalf("%s: expected panic", tc.name)
		}
	}
}
