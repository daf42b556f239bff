package caf_test

import (
	"fmt"
	"sort"
	"sync"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
)

// collect gathers one line per image and prints them sorted, so example
// output is deterministic despite concurrent images.
type collect struct {
	mu    sync.Mutex
	lines []string
}

func (c *collect) add(format string, args ...interface{}) {
	c.mu.Lock()
	c.lines = append(c.lines, fmt.Sprintf(format, args...))
	c.mu.Unlock()
}

func (c *collect) dump() {
	sort.Strings(c.lines)
	for _, l := range c.lines {
		fmt.Println(l)
	}
}

func ExampleRun() {
	var out collect
	_ = caf.Run(3, caf.UHCAFOverMV2XSHMEM(), func(img *caf.Image) {
		out.add("image %d of %d", img.ThisImage(), img.NumImages())
	})
	out.dump()
	// Output:
	// image 1 of 3
	// image 2 of 3
	// image 3 of 3
}

func ExampleCoarray_PutElem() {
	var out collect
	_ = caf.Run(2, caf.UHCAFOverMV2XSHMEM(), func(img *caf.Image) {
		x := caf.Allocate[int64](img, 4) // integer :: x(4)[*]
		if img.ThisImage() == 1 {
			x.PutElem(2, 99, 0) // x(1)[2] = 99
		}
		img.SyncAll() // sync all
		if img.ThisImage() == 2 {
			out.add("image 2 sees %d", x.At(0))
		}
		img.SyncAll()
	})
	out.dump()
	// Output:
	// image 2 sees 99
}

func ExampleCoarray_Put_strided() {
	var out collect
	opts := caf.UHCAFOverCraySHMEM(fabric.CrayXC30()) // 2dim_strided by default
	_ = caf.Run(2, opts, func(img *caf.Image) {
		x := caf.Allocate[int64](img, 6, 4)
		if img.ThisImage() == 1 {
			// x(1:5:2, 2:4:2)[2] = 1..6  (0-based in the Go API)
			sec := caf.Section{{Lo: 0, Hi: 4, Step: 2}, {Lo: 1, Hi: 3, Step: 2}}
			x.Put(2, sec, []int64{1, 2, 3, 4, 5, 6})
		}
		img.SyncAll()
		if img.ThisImage() == 2 {
			out.add("x(2,1)=%d x(4,3)=%d", x.At(2, 1), x.At(4, 3))
		}
		img.SyncAll()
	})
	out.dump()
	// Output:
	// x(2,1)=2 x(4,3)=6
}

func ExampleLock() {
	var out collect
	_ = caf.Run(4, caf.UHCAFOverMV2XSHMEM(), func(img *caf.Image) {
		lck := caf.NewLock(img) // type(lock_type) :: lck[*]
		total := caf.Allocate[int64](img, 1)
		lck.Acquire(1) // lock(lck[1])
		v := total.GetElem(1, 0)
		total.PutElem(1, v+int64(img.ThisImage()), 0)
		lck.Release(1) // unlock(lck[1])
		img.SyncAll()
		if img.ThisImage() == 1 {
			out.add("sum under lock: %d", total.At(0))
		}
		img.SyncAll()
	})
	out.dump()
	// Output:
	// sum under lock: 10
}

func ExampleCoSum() {
	var out collect
	_ = caf.Run(4, caf.UHCAFOverMV2XSHMEM(), func(img *caf.Image) {
		sum := []int64{int64(img.ThisImage())}
		caf.CoSum(img, sum, 0) // co_sum, in place
		if img.ThisImage() == 1 {
			out.add("co_sum(this_image()) = %d", sum[0])
		}
		img.SyncAll()
	})
	out.dump()
	// Output:
	// co_sum(this_image()) = 10
}

func ExampleImage_FormTeam() {
	var out collect
	_ = caf.Run(4, caf.UHCAFOverMV2XSHMEM(), func(img *caf.Image) {
		tm := img.FormTeam(int64(img.ThisImage() % 2)) // form team(mod, t)
		s := []int64{int64(img.ThisImage())}
		caf.CoSumTeam(tm, s, 0)
		if tm.ThisImage() == 1 {
			out.add("team %d sum: %d", tm.TeamNumber(), s[0])
		}
		img.SyncAll()
	})
	out.dump()
	// Output:
	// team 0 sum: 6
	// team 1 sum: 4
}

func ExampleAllocateDyn() {
	var out collect
	_ = caf.Run(2, caf.UHCAFOverMV2XSHMEM(), func(img *caf.Image) {
		// type t; integer, allocatable :: data(:); end type; type(t) :: obj[*]
		obj := caf.AllocateDyn[int64](img)
		obj.AllocLocal(img.ThisImage() * 2) // different size per image
		img.SyncAll()
		if img.ThisImage() == 1 {
			out.add("size(obj[2]%%data) = %d", obj.RemoteLen(2))
		}
		img.SyncAll()
	})
	out.dump()
	// Output:
	// size(obj[2]%data) = 4
}
