package caf

import (
	"testing"

	"cafshmem/internal/fabric"
)

// Notify/Wait over blocking puts: the consumer that returns from Wait sees
// the producer's prior puts, with no barrier anywhere — on the fused
// put-with-signal paths (OpenSHMEM native, GASNet AM-emulated) and the MPI-3
// degrade alike.
func TestSignalNotifyWaitDeliversData(t *testing.T) {
	for name, opts := range map[string]Options{
		"shmem":  UHCAFOverMV2XSHMEM(),
		"cray":   UHCAFOverCraySHMEM(fabric.CrayXC30()),
		"gasnet": gasnetOpts(),
		"mpi3":   mpi3Opts(),
	} {
		err := Run(2, opts, func(img *Image) {
			x := Allocate[int64](img, 8)
			sig := NewSignal(img)
			me := img.ThisImage()
			if me == 1 {
				vals := []int64{11, 22, 33, 44, 55, 66, 77, 88}
				x.Put(2, All(8), vals)
				sig.Notify(2)
				// Producer keeps running; no barrier, no further sync.
			} else {
				sig.Wait(1)
				got := x.Slice()
				for i, want := range []int64{11, 22, 33, 44, 55, 66, 77, 88} {
					if got[i] != want {
						t.Errorf("%s: elem %d = %d after Wait, want %d", name, i, got[i], want)
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

// Repeated notify/wait pairs match one-to-one even when the producer runs
// ahead: sequences, not booleans.
func TestSignalSequencesMatchUp(t *testing.T) {
	const rounds = 5
	err := Run(2, UHCAFOverMV2XSHMEM(), func(img *Image) {
		x := Allocate[int64](img, 1)
		sig := NewSignal(img)
		if img.ThisImage() == 1 {
			// Fire all rounds immediately; each round's value overwrites the
			// last, so the consumer's k-th Wait sees at least round k's state.
			for k := 1; k <= rounds; k++ {
				x.Put(2, All(1), []int64{int64(k)})
				sig.Notify(2)
			}
		} else {
			for k := 1; k <= rounds; k++ {
				sig.Wait(1)
				if got := x.At(0); got < int64(k) {
					t.Errorf("round %d: value %d ran behind the signal", k, got)
				}
			}
			if p := sig.Pending(1); p != 0 {
				t.Errorf("pending = %d after consuming all rounds, want 0", p)
			}
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// PutSignalAsync: the flag rides the same completion stream as the data, so
// the consumer's Wait alone guarantees the section arrived — zero barriers
// and zero consumer-side quiets, across several iterations.
func TestPutSignalAsyncSignalMediatedCompletion(t *testing.T) {
	for name, opts := range asyncOpts() {
		err := Run(2, opts, func(img *Image) {
			x := Allocate[int64](img, 4, 4)
			sig := NewSignal(img)
			me := img.ThisImage()
			other := 3 - me
			barriers0 := img.Stats.Barriers
			for iter := 1; iter <= 3; iter++ {
				if me == 1 {
					vals := make([]int64, 16)
					for i := range vals {
						vals[i] = int64(iter*100 + i)
					}
					x.PutFullSignalAsync(other, vals, sig)
					sig.Wait(other) // consumer's ack for WAR safety
				} else {
					sig.Wait(other)
					got := x.Slice()
					for i, v := range got {
						if want := int64(iter*100 + i); v != want {
							t.Errorf("%s iter %d: elem %d = %d, want %d (signal arrived before data)", name, iter, i, v, want)
						}
					}
					sig.Notify(other) // ack: producer may overwrite
				}
			}
			if img.Stats.Barriers != barriers0 {
				t.Errorf("%s: %d barriers in the steady-state loop, want 0", name, img.Stats.Barriers-barriers0)
			}
			img.SyncMemory() // producer-side source hygiene before exit
			img.SyncAll()
			x.Deallocate()
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// A strided PutSignalAsync must also be signal-complete: every pencil of the
// section precedes the flag on the same per-destination stream.
func TestPutSignalAsyncStridedSection(t *testing.T) {
	err := Run(2, UHCAFOverCraySHMEM(fabric.CrayXC30()), func(img *Image) {
		x := Allocate[int64](img, 6, 6)
		sig := NewSignal(img)
		me := img.ThisImage()
		if me == 1 {
			sec := Section{{Lo: 1, Hi: 5, Step: 2}, {Lo: 0, Hi: 5, Step: 1}}
			vals := make([]int64, sec.NumElems())
			for i := range vals {
				vals[i] = int64(1000 + i)
			}
			x.PutSignalAsync(2, sec, vals, sig)
			img.SyncMemory()
		} else {
			sig.Wait(1)
			sec := Section{{Lo: 1, Hi: 5, Step: 2}, {Lo: 0, Hi: 5, Step: 1}}
			got := x.Get(2, sec)
			for i, v := range got {
				if want := int64(1000 + i); v != want {
					t.Errorf("strided elem %d = %d, want %d", i, v, want)
				}
			}
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// SyncMemoryImage completes only one destination's transfers: the virtual
// clock advances past the small transfer's horizon but stays well short of
// the big one's, and the later full SyncMemory still pays it.
func TestSyncMemoryImageWaitsForOneImage(t *testing.T) {
	const small, big = 16, 1 << 15 // elements
	err := Run(3, UHCAFOverMV2XSHMEM(), func(img *Image) {
		xs := Allocate[int64](img, small)
		xb := Allocate[int64](img, big)
		img.SyncAll()
		if img.ThisImage() == 1 {
			t0 := img.Clock().Now()
			xs.PutAsync(2, All(small), make([]int64, small))
			xb.PutAsync(3, All(big), make([]int64, big))
			img.SyncMemoryImage(2)
			mid := img.Clock().Now()
			img.SyncMemory()
			end := img.Clock().Now()
			if mid-t0 >= end-t0 {
				t.Errorf("SyncMemoryImage(2) waited as long as the full SyncMemory (%g vs %g ns)", mid-t0, end-t0)
			}
			if end <= mid {
				t.Errorf("full SyncMemory added no wait (%g -> %g): the big transfer was already drained", mid, end)
			}
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// SyncMemoryImage degrades to the (stronger) full SyncMemory on transports
// without per-destination completion (MPI-3 RMA), and the data still lands.
func TestSyncMemoryImageMPI3Degrade(t *testing.T) {
	err := Run(2, mpi3Opts(), func(img *Image) {
		x := Allocate[int64](img, 8)
		me := img.ThisImage()
		x.PutAsync(3-me, All(8), []int64{1, 2, 3, 4, 5, 6, 7, 8})
		img.SyncMemoryImage(3 - me)
		img.SyncAll()
		for i, v := range x.Slice() {
			if v != int64(i+1) {
				t.Errorf("elem %d = %d, want %d", i, v, i+1)
			}
		}
		if s := img.SyncMemoryImageStat(3 - me); s != StatOK {
			t.Errorf("SyncMemoryImageStat = %v, want StatOK", s)
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The batch path's sanitizer view: PutAsync toward one image followed by
// SyncMemoryImage of that image is clean, while syncing only a *different*
// image leaves the transfers outstanding (caught as a race by a subsequent
// read).
func TestSyncMemoryImageSanitizerScoping(t *testing.T) {
	eachTransport(t, func(t *testing.T, opts Options) {
		opts.Sanitize = true
		err := Run(3, opts, func(img *Image) {
			x := Allocate[int64](img, 4)
			img.SyncAll()
			if img.ThisImage() == 1 {
				x.PutAsync(2, All(4), []int64{1, 2, 3, 4})
				img.SyncMemoryImage(2) // completes exactly the outstanding batch
				_ = x.Get(2, Idx(0))   // clean read-back
			}
			img.SyncAll()
			x.Deallocate()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
