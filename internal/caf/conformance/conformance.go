// Package conformance is the transport conformance suite: one battery of
// semantic checks that every caf transport must pass, parameterised over the
// backends (OpenSHMEM, GASNet, MPI-3 RMA). The battery pins the portable
// contract — blocking, vectored and strided RMA, the nonblocking surface and
// its Quiet completion semantics, put-with-signal, remote atomics,
// locks, collectives, pairwise synchronisation, and the STAT-bearing fault
// paths — so a new transport is done when it passes here, not when it happens
// to survive the application benchmarks.
//
// Capabilities a backend lacks are part of the contract too: the suite
// asserts the documented degradation (PutAsync falling back to blocking puts
// on MPI-3 RMA, fault options being rejected off OpenSHMEM) rather than
// skipping, so a silent behaviour change on any backend fails loudly.
//
// The differential half of the suite (differential_test.go) goes further
// than semantics: with all three transports pinned to one cost profile, the
// blocking RMA paths must produce bit-identical virtual times, and every
// intentional divergence (GASNet's AM-emulated atomics and signals, MPI-3's
// per-operation window-synchronisation surcharge) is asserted as an exact
// per-operation formula rather than tolerated as noise.
package conformance

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
)

// Case is one transport under test.
type Case struct {
	Name string
	Opts func() caf.Options
	// StridedCall: the library has a 1-D strided put/get of its own, priced on
	// its list (§IV-C). Without one a strided transfer is its elements, each
	// priced as a put or get.
	StridedCall bool
}

// Caps is what the transport provides natively (caf.TransportKind.Caps, the
// runtime's own table). The battery uses it to flip between "must overlap"
// and "must degrade gracefully" assertions — a capability a transport lacks
// must fall back to the blocking path with identical observable semantics,
// never fail.
func (c Case) Caps() caf.Caps { return c.Opts().Transport.Caps() }

// Cases returns the transport matrix on the Stampede machine model — the one
// platform the paper measures all three libraries on (§III, Figs 2–3).
func Cases() []Case {
	return []Case{
		{Name: "shmem", Opts: caf.UHCAFOverMV2XSHMEM, StridedCall: true},
		{Name: "gasnet", Opts: func() caf.Options { return caf.UHCAFOverGASNet(fabric.Stampede(), fabric.ProfGASNetIBV) }},
		{Name: "mpi3", Opts: caf.UHCAFOverMV2XMPI3},
	}
}

// RunBattery runs the full semantic battery against one transport case as
// named subtests of t.
func RunBattery(t *testing.T, c Case) {
	t.Run("blocking-rma", func(t *testing.T) { batteryBlockingRMA(t, c.Opts()) })
	t.Run("vectored-rma", func(t *testing.T) { batteryVectoredRMA(t, c.Opts()) })
	t.Run("strided-rma", func(t *testing.T) { batteryStridedRMA(t, c.Opts()) })
	t.Run("lowered-rma", func(t *testing.T) { batteryLoweredRMA(t, c) })
	t.Run("nbi-quiet", func(t *testing.T) { batteryNBIQuiet(t, c.Opts(), c.Caps()) })
	t.Run("put-signal", func(t *testing.T) { batteryPutSignal(t, c.Opts()) })
	t.Run("atomics", func(t *testing.T) { batteryAtomics(t, c.Opts()) })
	t.Run("locks", func(t *testing.T) { batteryLocks(t, c.Opts()) })
	t.Run("collectives", func(t *testing.T) { batteryCollectives(t, c.Opts()) })
	t.Run("sync-images", func(t *testing.T) { batterySyncImages(t, c.Opts()) })
	t.Run("fault-stat", func(t *testing.T) { batteryFaultStat(t, c) })
}

func run(t *testing.T, images int, o caf.Options, body func(img *caf.Image)) {
	t.Helper()
	if err := caf.Run(images, o, body); err != nil {
		t.Fatal(err)
	}
}

// batteryBlockingRMA: contiguous blocking put/get round-trips on a ring.
// After SyncAll every image holds what its left neighbour sent, and a
// blocking get observes remote memory written in the same epoch.
func batteryBlockingRMA(t *testing.T, o caf.Options) {
	const n, elems = 4, 32
	run(t, n, o, func(img *caf.Image) {
		me := img.ThisImage()
		right := me%n + 1
		left := (me+n-2)%n + 1
		c := caf.Allocate[int64](img, elems)
		vals := make([]int64, elems)
		for i := range vals {
			vals[i] = int64(me*1000 + i)
		}
		c.PutFull(right, vals)
		img.SyncAll()
		for i, v := range c.Slice() {
			if v != int64(left*1000+i) {
				t.Errorf("image %d elem %d = %d, want %d (from image %d)", me, i, v, left*1000+i, left)
				break
			}
		}
		// The blocking get reads the neighbour's already-synchronised state.
		got := c.GetFull(right)
		for i, v := range got {
			if v != int64(me*1000+i) {
				t.Errorf("image %d get from %d: elem %d = %d, want %d", me, right, i, v, me*1000+i)
				break
			}
		}
		img.SyncAll()
		c.Deallocate()
	})
}

// batteryVectoredRMA: multi-run sections of a 2-D coarray — whole columns at a
// column stride, a rectangular block of partial columns, a grid strided in
// both dimensions — under every decomposition algorithm. Selected elements
// land exactly and unselected ones stay untouched; the matching get
// round-trips the section, issued by the putter and by the target itself.
func batteryVectoredRMA(t *testing.T, o caf.Options) {
	const rows, cols = 8, 6
	secs := []caf.Section{
		{{Lo: 0, Hi: rows - 1, Step: 1}, {Lo: 1, Hi: 5, Step: 2}},
		{{Lo: 2, Hi: 5, Step: 1}, {Lo: 1, Hi: 3, Step: 1}},
		{{Lo: 1, Hi: 7, Step: 2}, {Lo: 0, Hi: 4, Step: 2}},
	}
	for _, algo := range []caf.StridedAlgo{caf.StridedNaive, caf.StridedOneDim, caf.Strided2Dim, caf.StridedBestDim} {
		o.Strided = algo
		run(t, 2, o, func(img *caf.Image) {
			c := caf.Allocate[int64](img, rows, cols)
			for _, sec := range secs {
				vals := make([]int64, sec.NumElems())
				for i := range vals {
					vals[i] = int64(100 + i)
				}
				if img.ThisImage() == 1 {
					c.Put(2, sec, vals)
				}
				img.SyncAll()
				if img.ThisImage() == 2 {
					want, k := make([]int64, rows*cols), 0
					for col := sec[1].Lo; col <= sec[1].Hi; col += sec[1].Step {
						for r := sec[0].Lo; r <= sec[0].Hi; r += sec[0].Step {
							want[r+col*rows], k = vals[k], k+1
						}
					}
					if got := c.Slice(); !slices.Equal(got, want) {
						t.Errorf("%v: put of %v left %v, want %v", algo, sec, got, want)
					}
				}
				if got := c.Get(2, sec); !slices.Equal(got, vals) {
					t.Errorf("%v: image %d got %v of %v, want %v", algo, img.ThisImage(), sec, got, vals)
				}
				img.SyncAll()
				c.Fill(0)
				img.SyncAll()
			}
			c.Deallocate()
		})
	}
}

// batteryStridedRMA: a step-2 1-D section — the degenerate strided shape
// every decomposition algorithm (naive, pencil, 2dim) must scatter
// element-by-element without disturbing the gaps.
func batteryStridedRMA(t *testing.T, o caf.Options) {
	run(t, 2, o, func(img *caf.Image) {
		const elems = 16
		c := caf.Allocate[int64](img, elems)
		sec := caf.Section{{Lo: 1, Hi: elems - 1, Step: 2}}
		vals := make([]int64, sec.NumElems())
		for i := range vals {
			vals[i] = int64(i + 1)
		}
		if img.ThisImage() == 1 {
			c.Put(2, sec, vals)
		}
		img.SyncAll()
		if img.ThisImage() == 2 {
			for i := 0; i < elems; i++ {
				want := int64(0)
				if i%2 == 1 {
					want = int64(i/2 + 1)
				}
				if got := c.At(i); got != want {
					t.Errorf("elem %d = %d, want %d", i, got, want)
				}
			}
		}
		img.SyncAll()
		if img.ThisImage() == 1 {
			got := c.Get(2, sec)
			for i := range got {
				if got[i] != vals[i] {
					t.Errorf("strided get elem %d = %d, want %d", i, got[i], vals[i])
				}
			}
		}
		img.SyncAll()
		c.Deallocate()
	})
}

// batteryLoweredRMA: a multi-run transfer costs what its runs cost one by
// one. A vectored section (naive algorithm), blocking or nonblocking, must
// leave the same bytes and advance the issuing image's clock by exactly as
// much as one contiguous call per run, on every transport. A 1-D strided call
// must do the same against one call per element on the transports without a
// strided library call; where the library has one its cost is the library's
// (Case.StridedCall) and only the bytes are compared. DeferredQuiet keeps the
// §IV-B quiets out of the measurement.
func batteryLoweredRMA(t *testing.T, c Case) {
	const rows, cols = 8, 6
	colSec := func(col int) caf.Section {
		return caf.Section{{Lo: 0, Hi: rows - 1, Step: 1}, {Lo: col, Hi: col, Step: 1}}
	}
	threeCols := caf.Section{{Lo: 0, Hi: rows - 1, Step: 1}, {Lo: 1, Hi: 5, Step: 2}}
	oddRows := caf.Section{{Lo: 1, Hi: rows - 1, Step: 2}, {Lo: 0, Hi: 0, Step: 1}}
	vals := make([]int64, threeCols.NumElems())
	for i := range vals {
		vals[i] = int64(100 + i)
	}
	type body func(x *caf.Coarray[int64]) []int64
	for _, tc := range []struct {
		name         string
		algo         caf.StridedAlgo
		strided      bool // a 1-D strided call: compare bytes only on a Case.StridedCall library
		whole, parts body
	}{
		{"vectored-put", caf.StridedNaive, false,
			func(x *caf.Coarray[int64]) []int64 { x.Put(2, threeCols, vals); return nil },
			func(x *caf.Coarray[int64]) []int64 {
				for k, col := range []int{1, 3, 5} {
					x.Put(2, colSec(col), vals[k*rows:(k+1)*rows])
				}
				return nil
			}},
		{"vectored-put-async", caf.StridedNaive, false,
			func(x *caf.Coarray[int64]) []int64 { x.PutAsync(2, threeCols, vals); return nil },
			func(x *caf.Coarray[int64]) []int64 {
				for k, col := range []int{1, 3, 5} {
					x.PutAsync(2, colSec(col), vals[k*rows:(k+1)*rows])
				}
				return nil
			}},
		{"vectored-get", caf.StridedNaive, false,
			func(x *caf.Coarray[int64]) []int64 { return x.Get(2, threeCols) },
			func(x *caf.Coarray[int64]) (got []int64) {
				for _, col := range []int{1, 3, 5} {
					got = append(got, x.Get(2, colSec(col))...)
				}
				return got
			}},
		{"strided-put", caf.StridedOneDim, true,
			func(x *caf.Coarray[int64]) []int64 { x.Put(2, oddRows, vals[:rows/2]); return nil },
			func(x *caf.Coarray[int64]) []int64 {
				for k := 0; k < rows/2; k++ {
					x.PutElem(2, vals[k], 1+2*k, 0)
				}
				return nil
			}},
		{"strided-get", caf.StridedOneDim, true,
			func(x *caf.Coarray[int64]) []int64 { return x.Get(2, oddRows) },
			func(x *caf.Coarray[int64]) (got []int64) {
				for k := 0; k < rows/2; k++ {
					got = append(got, x.GetElem(2, 1+2*k, 0))
				}
				return got
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// One run per form, so both start from the same clock and the
			// deltas compare bit for bit.
			measure := func(b body) (delta float64, read, remote []int64) {
				o := c.Opts()
				o.Strided, o.DeferredQuiet = tc.algo, true
				run(t, 2, o, func(img *caf.Image) {
					x := caf.Allocate[int64](img, rows, cols)
					x.Fill(int64(1000 * img.ThisImage()))
					img.SyncAll()
					if img.ThisImage() == 1 {
						t0 := img.Clock().Now()
						read = b(x)
						delta = img.Clock().Now() - t0
					}
					img.SyncAll()
					if img.ThisImage() == 2 {
						remote = x.Slice()
					}
					x.Deallocate()
				})
				return delta, read, remote
			}
			wd, wread, wremote := measure(tc.whole)
			pd, pread, premote := measure(tc.parts)
			if !slices.Equal(wread, pread) || !slices.Equal(wremote, premote) {
				t.Errorf("one call and one call per run moved different bytes:\n read %v vs %v\n target %v vs %v", wread, pread, wremote, premote)
			}
			if wd <= 0 {
				t.Errorf("the transfer advanced the clock %v ns: nothing was measured", wd)
			}
			if !(tc.strided && c.StridedCall) && wd != pd {
				t.Errorf("one call advanced the clock %v ns, one call per run %v ns: must be identical", wd, pd)
			}
		})
	}
}

// batteryNBIQuiet: the nonblocking surface and its completion statements.
// Transports with Caps.NBI must count nonblocking issues in Stats.AsyncPuts;
// transports without must degrade to the blocking path (AsyncPuts == 0). In
// both cases SyncMemory completes everything and SyncMemoryImage completes a
// single destination, after which the data is visible post-barrier.
func batteryNBIQuiet(t *testing.T, o caf.Options, caps caf.Caps) {
	const elems = 64
	run(t, 3, o, func(img *caf.Image) {
		c := caf.Allocate[int64](img, elems)
		if img.ThisImage() == 1 {
			vals := make([]int64, elems)
			for i := range vals {
				vals[i] = int64(7000 + i)
			}
			c.PutFullAsync(2, vals)
			if caps.NBI && img.Stats.AsyncPuts == 0 {
				t.Error("transport advertises NBI but PutAsync issued no nonblocking transfers")
			}
			if !caps.NBI && img.Stats.AsyncPuts != 0 {
				t.Errorf("transport without NBI issued %d nonblocking transfers; must degrade to blocking puts", img.Stats.AsyncPuts)
			}
			img.SyncMemory()
		}
		img.SyncAll()
		if img.ThisImage() == 2 {
			for i, v := range c.Slice() {
				if v != int64(7000+i) {
					t.Errorf("elem %d = %d, want %d", i, v, 7000+i)
					break
				}
			}
		}
		img.SyncAll() // close the read segment before the next round of puts
		// Per-image completion: puts to two destinations, SyncMemoryImage
		// drains one, SyncMemory the rest; both must be visible after the
		// barrier regardless of which statement completed them.
		sec := caf.Section{{Lo: 0, Hi: 7, Step: 1}}
		if img.ThisImage() == 1 {
			a := []int64{1, 2, 3, 4, 5, 6, 7, 8}
			b := []int64{11, 12, 13, 14, 15, 16, 17, 18}
			c.PutAsync(2, sec, a)
			c.PutAsync(3, sec, b)
			img.SyncMemoryImage(2)
			img.SyncMemory()
		}
		img.SyncAll()
		switch img.ThisImage() {
		case 2:
			for i := 0; i < 8; i++ {
				if got := c.At(i); got != int64(i+1) {
					t.Errorf("image 2 elem %d = %d, want %d", i, got, i+1)
				}
			}
		case 3:
			for i := 0; i < 8; i++ {
				if got := c.At(i); got != int64(i+11) {
					t.Errorf("image 3 elem %d = %d, want %d", i, got, i+11)
				}
			}
		}
		img.SyncAll()
		c.Deallocate()
	})
}

// batteryPutSignal: put-with-signal synchronisation with no barrier on the
// critical path. A consumer that observes the signal observes the data it
// advertises — fused on transports with the native path, degraded to
// put+quiet+notify elsewhere, observably identical either way.
func batteryPutSignal(t *testing.T, o caf.Options) {
	const elems = 16
	run(t, 2, o, func(img *caf.Image) {
		c := caf.Allocate[int64](img, elems)
		sig := caf.NewSignal(img)
		if img.ThisImage() == 1 {
			vals := make([]int64, elems)
			for i := range vals {
				vals[i] = int64(500 + i)
			}
			c.PutSignalAsync(2, caf.All(elems), vals, sig)
			img.SyncMemory() // source-buffer hygiene; not needed by the consumer
		} else {
			sig.Wait(1)
			for i, v := range c.Slice() {
				if v != int64(500+i) {
					t.Errorf("signal-mediated elem %d = %d, want %d", i, v, 500+i)
					break
				}
			}
		}
		img.SyncAll()
		// A bare Notify orders this image's prior blocking puts to the same
		// destination (issue-order delivery per destination).
		if img.ThisImage() == 2 {
			c.PutElem(1, 99, 3)
			sig.Notify(1)
		} else {
			sig.Wait(2)
			if got := c.At(3); got != 99 {
				t.Errorf("after notify: elem 3 = %d, want 99 (prior put must be ordered)", got)
			}
		}
		img.SyncAll()
		c.Deallocate()
	})
}

// batteryAtomics: the remote atomic battery — concurrent fetch-add
// linearisation plus every fetch-op flavour against a third image.
func batteryAtomics(t *testing.T, o caf.Options) {
	const n = 4
	run(t, n, o, func(img *caf.Image) {
		me := img.ThisImage()
		a := caf.NewAtomicVar(img)
		a.Add(1, int64(me))
		img.SyncAll()
		if me == 1 {
			if got := a.Ref(1); got != 1+2+3+4 {
				t.Errorf("concurrent fetch-adds summed to %d, want %d", got, 1+2+3+4)
			}
		}
		img.SyncAll()
		if me == 2 {
			a.Define(3, 0b1100)
			if old := a.FetchAnd(3, 0b1010); old != 0b1100 {
				t.Errorf("FetchAnd fetched %d, want 12", old)
			}
			if old := a.FetchOr(3, 0b0001); old != 0b1000 {
				t.Errorf("FetchOr fetched %d, want 8", old)
			}
			if old := a.FetchXor(3, 0b1111); old != 0b1001 {
				t.Errorf("FetchXor fetched %d, want 9", old)
			}
			if old := a.Swap(3, 42); old != 0b0110 {
				t.Errorf("Swap fetched %d, want 6", old)
			}
			if old := a.CompareSwap(3, 42, 7); old != 42 {
				t.Errorf("CompareSwap hit fetched %d, want 42", old)
			}
			if old := a.CompareSwap(3, 99, 1); old != 7 {
				t.Errorf("CompareSwap miss fetched %d, want 7", old)
			}
			if got := a.Ref(3); got != 7 {
				t.Errorf("final value %d, want 7 (missed CAS must not store)", got)
			}
		}
		img.SyncAll()
	})
}

// batteryLocks: coarray locks provide mutual exclusion across images.
func batteryLocks(t *testing.T, o caf.Options) {
	const n, per = 4, 10
	var inCS, violations, total int64
	run(t, n, o, func(img *caf.Image) {
		lck := caf.NewLock(img)
		for i := 0; i < per; i++ {
			lck.Acquire(1)
			if atomic.AddInt64(&inCS, 1) != 1 {
				atomic.AddInt64(&violations, 1)
			}
			atomic.AddInt64(&total, 1)
			atomic.AddInt64(&inCS, -1)
			lck.Release(1)
		}
		img.SyncAll()
		lck.Deallocate()
	})
	if violations != 0 {
		t.Fatalf("%d mutual-exclusion violations", violations)
	}
	if total != n*per {
		t.Fatalf("%d critical sections executed, want %d", total, n*per)
	}
}

// batteryCollectives: the CAF collective subroutines built from one-sided
// communication must reduce and broadcast correctly on every transport, in
// place on the caller's array (Fortran 2018's INTENT(INOUT) argument). As in
// Fortran, any CO_* call may follow any other with no synchronisation between
// them, whatever the kinds, shapes, sources and result images: back-to-back
// runs such a sequence at two image counts.
func batteryCollectives(t *testing.T, o caf.Options) {
	const n = 4
	const resultImage = 3
	run(t, n, o, func(img *caf.Image) {
		me := int64(img.ThisImage())
		sum := []int64{me, 10 * me}
		if caf.CoSum(img, sum, 0); sum[0] != 10 || sum[1] != 100 {
			t.Errorf("image %d: CoSum = %v, want [10 100]", me, sum)
		}
		sum = []int64{me, 10 * me}
		if caf.CoSum(img, sum, resultImage); me == resultImage && (sum[0] != 10 || sum[1] != 100) {
			t.Errorf("CoSum(result image %d) = %v there, want [10 100]", resultImage, sum)
		}
		mn, mx := []int64{me}, []int64{me}
		if caf.CoMin(img, mn, 0); mn[0] != 1 {
			t.Errorf("image %d: CoMin = %v, want [1]", me, mn)
		}
		if caf.CoMax(img, mx, 0); mx[0] != n {
			t.Errorf("image %d: CoMax = %v, want [%d]", me, mx, n)
		}
		bc := []int64{me * 7, -me}
		if caf.CoBroadcast(img, bc, 3); bc[0] != 21 || bc[1] != -3 {
			t.Errorf("image %d: CoBroadcast = %v, want [21 -3] (the source's array)", me, bc)
		}
		prod := []int64{me}
		if caf.CoReduce(img, prod, func(a, b int64) int64 { return a * b }, 0); prod[0] != 24 {
			t.Errorf("image %d: CoReduce(product) = %v, want [24]", me, prod)
		}
		img.SyncAll()
	})
	for _, n := range []int{4, 7} {
		t.Run(fmt.Sprintf("back-to-back/n=%d", n), func(t *testing.T) { collectivesBackToBack(t, o, n) })
	}
}

// collectivesBackToBack runs five rounds of whole-job and team collectives of
// every kind and two shapes on n images with no synchronisation between any
// two calls, and checks each call's value on every image that must hold it.
func collectivesBackToBack(t *testing.T, o caf.Options, n int) {
	N, tri := int64(n), int64(n*(n+1)/2)
	run(t, n, o, func(img *caf.Image) {
		me := int64(img.ThisImage())
		tm := img.FormTeam(me % 2) // odd and even images
		var teamSum int64
		for _, m := range tm.Members() {
			teamSum += int64(m)
		}
		for r := int64(0); r < 5; r++ {
			check := func(call string, got []int64, want ...int64) {
				if !slices.Equal(got, want) {
					t.Errorf("round %d image %d: %s = %v, want %v", r, me, call, got, want)
				}
			}
			v := []int64{me + r}
			caf.CoSum(img, v, 0)
			check("CoSum", v, tri+N*r)
			v = []int64{100*me + r}
			caf.CoBroadcast(img, v, 2)
			check("CoBroadcast from 2", v, 200+r)
			v = []int64{me, r}
			if caf.CoSum(img, v, 3); me == 3 {
				check("CoSum to image 3", v, tri, N*r)
			}
			v = []int64{me, -r}
			caf.CoBroadcast(img, v, n)
			check("CoBroadcast from n", v, N, -r)
			v = []int64{me * r}
			caf.CoReduce(img, v, func(a, b int64) int64 { return max(a, b) }, 0)
			check("CoReduce(max)", v, N*r)
			v = []int64{1}
			caf.CoSum(img, v, 0)
			check("8-byte CoSum", v, N)
			v = []int64{1, me}
			caf.CoSum(img, v, 0)
			check("16-byte CoSum", v, N, tri)
			v = []int64{me}
			caf.CoSumTeam(tm, v, 0)
			check("CoSumTeam", v, teamSum)
			v = []int64{me + r}
			caf.CoBroadcastTeam(tm, v, 1)
			check("CoBroadcastTeam from team image 1", v, int64(tm.GlobalImage(1))+r)
		}
		img.SyncAll()
	})
}

// batterySyncImages: pairwise synchronisation on a ring orders the
// neighbour's put before the local read, with no global barrier.
func batterySyncImages(t *testing.T, o caf.Options) {
	const n = 4
	run(t, n, o, func(img *caf.Image) {
		me := img.ThisImage()
		right := me%n + 1
		left := (me+n-2)%n + 1
		c := caf.Allocate[int64](img, 1)
		c.PutElem(right, int64(me), 0)
		img.SyncImages(left, right)
		if got := c.At(0); got != int64(left) {
			t.Errorf("image %d: after SyncImages got %d, want %d from image %d", me, got, left, left)
		}
		img.SyncAll()
		c.Deallocate()
	})
}

// batteryFaultStat: the STAT-bearing fault paths under a deterministic
// fabric.FaultPlan, the same on every transport: survivors of a planned image
// failure observe StatFailedImage through SyncAllStat — sticky once seen —
// and the failed_images()/image_status() intrinsics agree.
func batteryFaultStat(t *testing.T, c Case) {
	o := c.Opts()
	o.FaultPlan = &fabric.FaultPlan{Kills: []fabric.FaultEvent{{PE: 2, AtNs: 30000}}}
	const n, rounds = 4, 10
	stats := make([][]caf.Stat, n)
	for i := range stats {
		stats[i] = make([]caf.Stat, rounds)
	}
	err := caf.Run(n, o, func(img *caf.Image) {
		me := img.ThisImage()
		for r := 0; r < rounds; r++ {
			img.Clock().Advance(7000) // modelled compute phase
			stats[me-1][r] = img.SyncAllStat()
		}
		if me == 1 {
			if got := img.ImageStatus(3); got != caf.StatFailedImage {
				t.Errorf("image_status(3) = %v, want StatFailedImage", got)
			}
			failed := img.FailedImages()
			if len(failed) != 1 || failed[0] != 3 {
				t.Errorf("failed_images() = %v, want [3]", failed)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < n; pe++ {
		if pe == 2 { // the victim
			continue
		}
		if final := stats[pe][rounds-1]; final != caf.StatFailedImage {
			t.Errorf("survivor image %d final stat = %v, want StatFailedImage", pe+1, final)
		}
		seen := false
		for r, s := range stats[pe] {
			if s != caf.StatOK {
				seen = true
			} else if seen {
				t.Errorf("image %d round %d: StatOK after a failure was observed (condition must be sticky)", pe+1, r)
			}
		}
	}
}
