package caf_test

import (
	"runtime"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/dht"
	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// Allocation ceilings for the control-word paths: flags, lock words and single
// elements travel through the image's 8-byte staging buffer and typed word
// waits, so what a collective, a lock hand-off or a DHT probe costs the heap is
// pinned here (process-wide malloc counts between two barriers, per call per
// image, with a little room for stray runtime allocations). Every ceiling is
// measured with the collector paused (pgas.PauseGC), so no verdict reads it.

// steadyAllocs runs body on `images` images and returns the process-wide
// mallocs of `calls` measured calls per image (after `calls/10` untimed ones),
// divided by calls*images.
func steadyAllocs(t *testing.T, images, calls int, setup func(img *caf.Image) func()) float64 {
	t.Helper()
	defer pgas.PauseGC()()
	o := caf.UHCAFOverMV2XSHMEM()
	var before, after runtime.MemStats
	err := caf.Run(images, o, func(img *caf.Image) {
		call := setup(img)
		for i := 0; i < calls/10; i++ {
			call()
		}
		img.SyncAll()
		if img.ThisImage() == 1 {
			runtime.ReadMemStats(&before)
		}
		img.SyncAll()
		for i := 0; i < calls; i++ {
			call()
		}
		img.SyncAll()
		if img.ThisImage() == 1 {
			runtime.ReadMemStats(&after)
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(calls*images)
}

// TestCoSumSteadyStateAllocs: a co_sum allocates its returned slice and
// nothing else — flags, payload encodes and child decodes all reuse the
// group's and the image's buffers.
func TestCoSumSteadyStateAllocs(t *testing.T) {
	n := steadyAllocs(t, 8, 500, func(img *caf.Image) func() {
		vals := []float64{float64(img.ThisImage()), 1}
		return func() {
			if s := caf.CoSum(img, vals, 0); s[1] != 8 {
				panic("co_sum wrong")
			}
		}
	})
	if n > 1.05 {
		t.Errorf("%.3f allocs per co_sum per image, want <= 1 (the returned slice)", n)
	}
}

// TestLockPairSteadyStateAllocs: an MCS acquire/release pair — qnode
// initialisation, tail swap, hand-off flag and the local spin — stays off the
// heap, contended or not (every image hammers the lock at image 1).
func TestLockPairSteadyStateAllocs(t *testing.T) {
	n := steadyAllocs(t, 4, 500, func(img *caf.Image) func() {
		lck := caf.NewLock(img)
		return func() {
			lck.Acquire(1)
			lck.Release(1)
		}
	})
	if n > 0.05 {
		t.Errorf("%.3f allocs per lock pair, want 0", n)
	}
}

// TestDHTUpdateSteadyStateAllocs: a DHT update — lock, probe with 8-byte
// gets, 8-byte puts, unlock — rides the same word path.
func TestDHTUpdateSteadyStateAllocs(t *testing.T) {
	n := steadyAllocs(t, 4, 500, func(img *caf.Image) func() {
		tbl := dht.New(img, 64)
		key := uint64(img.ThisImage())
		return func() {
			key = key*6364136223846793005 + 1442695040888963407
			if err := tbl.Update(key%128, 1); err != nil {
				panic(err)
			}
		}
	})
	if n > 0.05 {
		t.Errorf("%.3f allocs per DHT update, want 0", n)
	}
}

// TestTypedRMASteadyStateAllocs: typed data reaches the transport as a view of
// the caller's own slice (pgas.Bytes), so whole-array local access, a
// contiguous put and a naive-lowered section put — one vectored call over
// pooled run offsets — allocate nothing on any transport, blocking or not (a
// nonblocking put lands before it returns, so nothing copies it); and neither
// do the control-word operations, which like them fill the image's one
// descriptor — GASNet's atomics included, request/reply pairs that run in the
// endpoint's own token: a descriptor that starts escaping shows up here first.
func TestTypedRMASteadyStateAllocs(t *testing.T) {
	if pgas.RaceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what is put into it, and the naive-section puts borrow their run offsets from one")
	}
	defer pgas.PauseGC()()
	for name, o := range map[string]caf.Options{
		"shmem":  caf.UHCAFOverMV2XSHMEM(),
		"gasnet": caf.UHCAFOverGASNet(fabric.Stampede(), fabric.ProfGASNetIBV),
		"mpi3":   caf.UHCAFOverMV2XMPI3(),
	} {
		o.Strided = caf.StridedNaive
		err := caf.Run(2, o, func(img *caf.Image) {
			x := caf.Allocate[float64](img, 16, 16)
			sig, lck := caf.NewSignal(img), caf.NewLock(img)
			if img.ThisImage() == 1 {
				all := caf.All(16, 16)
				columns := caf.Section{{Lo: 0, Hi: 15, Step: 1}, {Lo: 0, Hi: 15, Step: 2}}
				whole, part := make([]float64, all.NumElems()), make([]float64, columns.NumElems())
				for op, call := range map[string]func(){
					"SetSlice":                     func() { x.SetSlice(whole) },
					"SliceInto":                    func() { x.SliceInto(whole) },
					"contiguous Put":               func() { x.Put(2, all, whole) },
					"naive-section Put":            func() { x.Put(2, columns, part) },
					"contiguous PutAsync":          func() { x.PutAsync(2, all, whole) },
					"naive-section PutAsync":       func() { x.PutAsync(2, columns, part) },
					"contiguous PutSignalAsync":    func() { x.PutSignalAsync(2, all, whole, sig) },
					"naive-section PutSignalAsync": func() { x.PutSignalAsync(2, columns, part, sig) },
					"PutElem":                      func() { x.PutElem(2, 1.5, 3, 4) },
					"GetElem":                      func() { _ = x.GetElem(2, 3, 4) },
					"Signal.Notify":                func() { sig.Notify(2) },
					"lock pair":                    func() { lck.Acquire(2); lck.Release(2) },
					"try-lock pair":                func() { lck.TryAcquire(2); lck.Release(2) },
				} {
					if got := testing.AllocsPerRun(200, call); got != 0 {
						t.Errorf("%s: %s: %v allocs per call, want 0", name, op, got)
					}
				}
			}
			img.SyncAll()
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestStridedPutSteadyStateAllocs: a section put lowered to 1-D strided calls
// (2dim_strided, §IV-C) walks its pencils with running offsets and a
// stack-resident index, and a pencil that is not along dimension 1 goes through
// the coarray's own buffer — so once that buffer exists the put allocates
// nothing, blocking or not, along either base dimension, on any transport.
func TestStridedPutSteadyStateAllocs(t *testing.T) {
	if pgas.RaceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what is put into it, and GASNet and MPI-3 issue a strided op's elements over pooled run offsets")
	}
	defer pgas.PauseGC()()
	for name, o := range map[string]caf.Options{
		"shmem":  caf.UHCAFOverMV2XSHMEM(),
		"cray":   caf.UHCAFOverCraySHMEM(fabric.CrayXC30()),
		"gasnet": caf.UHCAFOverGASNet(fabric.Stampede(), fabric.ProfGASNetIBV),
		"mpi3":   caf.UHCAFOverMV2XMPI3(),
	} {
		o.Strided = caf.Strided2Dim
		err := caf.Run(2, o, func(img *caf.Image) {
			x := caf.Allocate[float64](img, 16, 16, 4)
			if img.ThisImage() == 1 {
				for base, sec := range []caf.Section{
					{{Lo: 0, Hi: 14, Step: 2}, {Lo: 0, Hi: 7, Step: 1}, {Lo: 1, Hi: 3, Step: 2}}, // pencils along dimension 1
					{{Lo: 0, Hi: 6, Step: 3}, {Lo: 0, Hi: 15, Step: 1}, {Lo: 0, Hi: 3, Step: 1}}, // along dimension 2
				} {
					vals := make([]float64, sec.NumElems())
					x.Put(2, sec, vals) // sizes the pencil buffer
					if got := testing.AllocsPerRun(100, func() { x.Put(2, sec, vals) }); got != 0 {
						t.Errorf("%s: 2dim section put along dimension %d: %v allocs per call, want 0", name, base+1, got)
					}
					if got := testing.AllocsPerRun(100, func() { x.PutAsync(2, sec, vals) }); got != 0 {
						t.Errorf("%s: 2dim section PutAsync along dimension %d: %v allocs per call, want 0", name, base+1, got)
					}
				}
			}
			img.SyncAll()
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
