package caf

import (
	"testing"

	"cafshmem/internal/fabric"
)

// asyncOpts returns each strided configuration under test, all on the
// OpenSHMEM transport where the nonblocking surface exists.
func asyncOpts() map[string]Options {
	naive := UHCAFOverMV2XSHMEM()
	naive.Strided = StridedNaive
	return map[string]Options{
		"2dim":  UHCAFOverMV2XSHMEM(),
		"naive": naive,
		"cray":  UHCAFOverCraySHMEM(fabric.CrayXC30()),
	}
}

// PutAsync + SyncMemory must land exactly the bytes a blocking Put would,
// for contiguous, vectored, and pencil-strided sections alike.
func TestPutAsyncMatchesBlockingPut(t *testing.T) {
	for name, opts := range asyncOpts() {
		err := Run(2, opts, func(img *Image) {
			x := Allocate[int64](img, 4, 4)
			y := Allocate[int64](img, 4, 4)
			me := img.ThisImage()
			other := 3 - me
			vals := make([]int64, 0, 16)

			// Contiguous full section.
			full := make([]int64, 16)
			for i := range full {
				full[i] = int64(100*me + i)
			}
			x.PutAsync(other, All(4, 4), full)
			y.Put(other, All(4, 4), full)
			img.SyncMemory()
			img.SyncAll()
			if got, want := x.Slice(), y.Slice(); !equalSlices(got, want) {
				t.Errorf("%s: full section async=%v blocking=%v", name, got, want)
			}
			img.SyncAll()

			// Strided section (every other row: strided in dimension 1).
			sec := Section{{Lo: 0, Hi: 3, Step: 2}, {Lo: 0, Hi: 3, Step: 1}}
			vals = vals[:0]
			for i := 0; i < sec.NumElems(); i++ {
				vals = append(vals, int64(1000*me+i))
			}
			x.PutAsync(other, sec, vals)
			y.Put(other, sec, vals)
			img.SyncMemory()
			img.SyncAll()
			if got, want := x.Slice(), y.Slice(); !equalSlices(got, want) {
				t.Errorf("%s: strided section async=%v blocking=%v", name, got, want)
			}
			img.SyncAll()
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func equalSlices(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The virtual-time pin for the overlap model at the CAF layer: a PutAsync
// whose transfer is fully covered by local computation costs max(compute,
// transfer) + overheads, strictly less than the blocking put + compute sum.
func TestPutAsyncOverlapsCompute(t *testing.T) {
	const computeNs = 50e3 // 50 us: longer than the ~13 us 64 KiB transfer
	n := 8192              // 64 KiB of int64
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}

	elapsed := func(async bool) float64 {
		var out float64
		err := Run(2, UHCAFOverMV2XSHMEM(), func(img *Image) {
			x := Allocate[int64](img, n)
			img.SyncAll()
			if img.ThisImage() == 1 {
				start := img.Clock().Now()
				if async {
					x.PutAsync(2, All(n), vals)
				} else {
					x.Put(2, All(n), vals)
				}
				img.Clock().Advance(computeNs)
				img.SyncMemory()
				out = img.Clock().Now() - start
			}
			img.SyncAll()
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	blocking := elapsed(false)
	overlap := elapsed(true)
	if overlap >= blocking {
		t.Fatalf("overlap run (%v ns) not faster than blocking run (%v ns)", overlap, blocking)
	}
	if overlap < computeNs {
		t.Fatalf("overlap run (%v ns) below the compute floor %v ns", overlap, computeNs)
	}
	// The blocking run pays compute + full wire time in sequence; the async
	// run should hide nearly all of the wire time inside compute, keeping only
	// fixed overheads (injection + quiet). Require >= 80%% of it hidden.
	wire := blocking - computeNs
	if wire <= 0 {
		t.Fatalf("blocking run (%v ns) shows no wire time beyond compute", blocking)
	}
	if hidden := blocking - overlap; hidden < 0.8*wire {
		t.Errorf("only %v of %v ns wire time hidden by overlap", hidden, wire)
	}
}

// On transports without a nonblocking surface (MPI-3 RMA), PutAsync degrades
// to the blocking path and stays correct.
func TestPutAsyncFallsBackOnMPI3(t *testing.T) {
	err := Run(2, mpi3Opts(), func(img *Image) {
		x := Allocate[int64](img, 8)
		me := img.ThisImage()
		vals := make([]int64, 8)
		for i := range vals {
			vals[i] = int64(10*me + i)
		}
		x.PutAsync(3-me, All(8), vals)
		img.SyncMemory()
		img.SyncAll()
		got := x.Slice()
		for i, v := range got {
			if want := int64(10*(3-me) + i); v != want {
				t.Errorf("image %d elem %d = %d, want %d", me, i, v, want)
			}
		}
		if img.Stats.AsyncPuts != 0 {
			t.Errorf("MPI-3 fallback counted %d async puts", img.Stats.AsyncPuts)
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// GASNet now exposes gasnet_put_nbi through the NBI engine: PutAsync must be
// genuinely nonblocking there — counted as async and landing the data after
// SyncMemory — not silently degraded as the original UHCAF backend did.
func TestPutAsyncNonblockingOnGASNet(t *testing.T) {
	err := Run(2, gasnetOpts(), func(img *Image) {
		x := Allocate[int64](img, 8)
		me := img.ThisImage()
		vals := make([]int64, 8)
		for i := range vals {
			vals[i] = int64(10*me + i)
		}
		x.PutAsync(3-me, All(8), vals)
		if img.Stats.AsyncPuts == 0 {
			t.Error("GASNet PutAsync did not take the nonblocking path")
		}
		img.SyncMemory()
		img.SyncAll()
		got := x.Slice()
		for i, v := range got {
			if want := int64(10*(3-me) + i); v != want {
				t.Errorf("image %d elem %d = %d, want %d", me, i, v, want)
			}
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The async path must satisfy the sanitizer's NBI contract (fresh buffers,
// quiet before reuse) — a regression gate on putSectionNBI's buffer handling.
func TestPutAsyncSanitizerClean(t *testing.T) {
	opts := UHCAFOverMV2XSHMEM()
	opts.Sanitize = true
	err := Run(2, opts, func(img *Image) {
		x := Allocate[int64](img, 4, 4)
		me := img.ThisImage()
		vals := make([]int64, 16)
		for i := range vals {
			vals[i] = int64(me*100 + i)
		}
		for iter := 0; iter < 3; iter++ {
			x.PutAsync(3-me, All(4, 4), vals)
			sec := Section{{Lo: 0, Hi: 3, Step: 2}, {Lo: 1, Hi: 2, Step: 1}}
			x.PutAsync(3-me, sec, vals[:sec.NumElems()])
			img.SyncMemory()
			img.SyncAll()
		}
		x.Deallocate()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// PutAsync and PutSignalAsync snapshot their values at issue: the caller may
// overwrite vals the moment the call returns, long before SyncMemory, and the
// target still receives what vals held at the call — on the contiguous,
// vectored and pencil-strided lowerings, on every transport, and without a
// sanitizer report (the runtime's encoded buffer is what stays in flight, not
// vals). Himeno's reused halo-plane buffers rely on exactly this.
func TestPutAsyncSnapshotsValuesAtIssue(t *testing.T) {
	cfgs := asyncOpts()
	cfgs["gasnet"] = gasnetOpts()
	cfgs["mpi3"] = mpi3Opts()
	strided := Section{{Lo: 0, Hi: 3, Step: 2}, {Lo: 0, Hi: 3, Step: 1}}
	for name, opts := range cfgs {
		opts.Sanitize = opts.Transport == TransportSHMEM // the checker exists there only
		err := Run(2, opts, func(img *Image) {
			x := Allocate[int64](img, 4, 4)
			sig := NewSignal(img)
			me := img.ThisImage()
			other := 3 - me
			for _, sec := range []Section{All(4, 4), strided} {
				for _, signalled := range []bool{false, true} {
					x.Fill(0)
					img.SyncAll()
					vals := make([]int64, sec.NumElems())
					for i := range vals {
						vals[i] = int64(100*me + i + 1)
					}
					if signalled {
						x.PutSignalAsync(other, sec, vals, sig)
					} else {
						x.PutAsync(other, sec, vals)
					}
					for i := range vals {
						vals[i] = -1 // reuse before any SyncMemory
					}
					if signalled {
						sig.Wait(other)
					} else {
						img.SyncMemory()
						img.SyncAll()
					}
					want, k := make([]int64, 16), 0
					for j := sec[1].Lo; j <= sec[1].Hi; j += sec[1].Step {
						for i := sec[0].Lo; i <= sec[0].Hi; i += sec[0].Step {
							k++
							want[i+4*j] = int64(100*other + k)
						}
					}
					if got := x.Slice(); !equalSlices(got, want) {
						t.Errorf("%s signalled=%v: got %v, want the values at issue %v", name, signalled, got, want)
					}
					img.SyncMemory()
					img.SyncAll()
				}
			}
			x.Deallocate()
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestPutDoesNotRetainCallerBuffer pins the ownership rule of pgas/buffer.go
// from the top of the stack. Every put hands the transport a view of vals'
// own bytes (blocking) or a copy of them taken at issue (PutAsync,
// PutSignalAsync), so on every lowering, every transport, under the sanitizer
// and across a dropping, duplicating fabric, the caller may overwrite vals the
// instant the call returns and the target still receives what vals held at
// the call: nothing below keeps the caller's memory, and no retransmission
// re-reads it.
func TestPutDoesNotRetainCallerBuffer(t *testing.T) {
	lossy := &fabric.FaultPlan{Seed: 7, Losses: []fabric.LinkLoss{
		{Src: -1, Dst: -1, DropProb: 0.2, DelayMaxNs: 2500, DupProb: 0.08}}}
	type config struct {
		name string
		opts Options
	}
	var cfgs []config
	for _, algo := range []StridedAlgo{StridedNaive, StridedOneDim, Strided2Dim} {
		for _, tr := range []config{{"shmem", shmemOpts()}, {"gasnet", gasnetOpts()}, {"mpi3", mpi3Opts()}} {
			o := tr.opts
			o.Strided = algo
			cfgs = append(cfgs, config{tr.name + "/" + algo.String(), o})
			if o.Transport != TransportSHMEM {
				continue // the sanitizer and the lossy fabric exist on shmem only
			}
			san, loss := o, o
			san.Sanitize = true
			loss.FaultPlan = lossy
			cfgs = append(cfgs, config{tr.name + "/" + algo.String() + "/sanitize", san},
				config{tr.name + "/" + algo.String() + "/lossy", loss})
		}
	}
	secs := []Section{
		All(4, 4), // contiguous: one putmem
		{{Lo: 0, Hi: 3, Step: 2}, {Lo: 0, Hi: 3, Step: 1}}, // dimension 1 strided: single-element runs, gathered pencils
		{{Lo: 0, Hi: 3, Step: 1}, {Lo: 0, Hi: 3, Step: 2}}, // whole columns: multi-element runs, in-place pencils
	}
	for _, cfg := range cfgs {
		err := Run(2, cfg.opts, func(img *Image) {
			x := Allocate[float64](img, 4, 4)
			sig := NewSignal(img)
			me := img.ThisImage()
			other := 3 - me
			for si, sec := range secs {
				for _, op := range []string{"Put", "PutAsync", "PutSignalAsync"} {
					x.Fill(0)
					img.SyncAll()
					vals := make([]float64, sec.NumElems())
					for i := range vals {
						vals[i] = float64(100*me+i) + 0.5
					}
					switch op {
					case "Put":
						x.Put(other, sec, vals)
					case "PutAsync":
						x.PutAsync(other, sec, vals)
					case "PutSignalAsync":
						x.PutSignalAsync(other, sec, vals, sig)
					}
					for i := range vals {
						vals[i] = -1 // the call has returned: vals is the caller's again
					}
					if op == "PutSignalAsync" {
						sig.Wait(other)
					} else {
						img.SyncMemory()
						img.SyncAll()
					}
					want, k := make([]float64, 16), 0
					for j := sec[1].Lo; j <= sec[1].Hi; j += sec[1].Step {
						for i := sec[0].Lo; i <= sec[0].Hi; i += sec[0].Step {
							want[i+4*j] = float64(100*other+k) + 0.5
							k++
						}
					}
					got := x.Slice()
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s section %d %s: got %v, want the values at the call %v", cfg.name, si, op, got, want)
							break
						}
					}
					img.SyncMemory()
					img.SyncAll()
				}
			}
			x.Deallocate()
		})
		if err != nil {
			t.Errorf("%s: %v", cfg.name, err)
		}
	}
}

// Stats must attribute nonblocking traffic to AsyncPuts and SyncMemory to
// Quiets.
func TestAsyncStats(t *testing.T) {
	err := Run(2, UHCAFOverMV2XSHMEM(), func(img *Image) {
		x := Allocate[int64](img, 4, 4)
		me := img.ThisImage()
		x.PutAsync(3-me, All(4, 4), make([]int64, 16))
		if img.Stats.AsyncPuts != 1 {
			t.Errorf("AsyncPuts = %d after contiguous PutAsync, want 1", img.Stats.AsyncPuts)
		}
		q := img.Stats.Quiets
		img.SyncMemory()
		if img.Stats.Quiets != q+1 {
			t.Errorf("SyncMemory did not count a quiet")
		}
		if s := img.SyncMemoryStat(); s != StatOK {
			t.Errorf("SyncMemoryStat = %v, want StatOK", s)
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}
