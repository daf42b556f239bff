package caf

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

func lockOpts(algo LockAlgo) Options {
	o := shmemOpts()
	o.Locks = algo
	return o
}

// Every lock algorithm must provide mutual exclusion on the instance at a
// single image.
func TestLockMutualExclusionAllAlgorithms(t *testing.T) {
	for _, algo := range []LockAlgo{LockMCS, LockVendor, LockNaiveSpin, LockGlobalArray} {
		t.Run(algo.String(), func(t *testing.T) {
			const per = 20
			var inCS, violations, total int64
			err := Run(6, lockOpts(algo), func(img *Image) {
				lck := NewLock(img)
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
			})
			if err != nil {
				t.Fatal(err)
			}
			if violations != 0 {
				t.Fatalf("%d mutual-exclusion violations", violations)
			}
			if total != 6*per {
				t.Fatalf("%d acquisitions, want %d", total, 6*per)
			}
		})
	}
}

// The spin-lock progress test: the remote-spinning comparators must let other
// images run between probes (pgas.PE.Yield). Image 1 holds lck[1] until image 3
// notifies it, image 2 spins on lck[1]; a spinner counts as running, so no
// quiescence rule can see one that starves the image it waits for. workers=k
// runs the program on k Ps (0: as the test binary was started), check.sh adds
// -cpu 1; the engine label is the spelling of the deprecated, ignored
// pgas.Options.Engine the world is built with (the test floor pins the names).
func TestSpinLockYieldsWorkerSlot(t *testing.T) {
	for _, algo := range []LockAlgo{LockNaiveSpin, LockGlobalArray} {
		for _, c := range []struct {
			name    string
			engine  pgas.Engine
			workers int
		}{
			{"goroutine", pgas.EngineGoroutine, 0},
			{"event", pgas.EngineEvent, 1},
			{"event", pgas.EngineEvent, 2},
		} {
			t.Run(fmt.Sprintf("%v/%s/workers=%d", algo, c.name, c.workers), func(t *testing.T) {
				if c.workers > 0 {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.workers))
				}
				opts := lockOpts(algo)
				opts.Engine = c.engine
				err := Run(3, opts, func(img *Image) {
					lck, sig := NewLock(img), NewSignal(img)
					switch img.ThisImage() {
					case 1:
						lck.Acquire(1)
						img.SyncAll()
						sig.Wait(3)
						lck.Release(1)
					case 2:
						img.SyncAll()
						lck.Acquire(1)
						lck.Release(1)
					default:
						img.SyncAll()
						sig.Notify(1)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// Locks at different images are independent instances: holding lck[1] does
// not block lck[2].
func TestLockInstancesIndependent(t *testing.T) {
	err := Run(2, shmemOpts(), func(img *Image) {
		lck := NewLock(img)
		if img.ThisImage() == 1 {
			lck.Acquire(1)
		}
		img.SyncAll()
		if img.ThisImage() == 2 {
			// Must succeed immediately: a different instance.
			if !lck.TryAcquire(2) {
				panic("lck[2] blocked by lck[1]")
			}
			lck.Release(2)
		}
		img.SyncAll()
		if img.ThisImage() == 1 {
			lck.Release(1)
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// An image may simultaneously hold the same lock variable at different
// images (the paper: "another image may simultaneously acquire the
// corresponding lck lock at another image").
func TestHoldMultipleInstances(t *testing.T) {
	err := Run(3, shmemOpts(), func(img *Image) {
		lck := NewLock(img)
		if img.ThisImage() == 1 {
			lck.Acquire(2)
			lck.Acquire(3)
			if !lck.Holds(2) || !lck.Holds(3) {
				panic("held-lock table wrong")
			}
			lck.Release(3)
			lck.Release(2)
			if lck.Holds(2) || lck.Holds(3) {
				panic("held-lock table not cleaned")
			}
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLockErrorConditions(t *testing.T) {
	// Acquiring a lock already held by this image is an error condition.
	err := Run(1, shmemOpts(), func(img *Image) {
		lck := NewLock(img)
		lck.Acquire(1)
		lck.Acquire(1)
	})
	if err == nil {
		t.Fatal("double acquire must panic")
	}
	// Releasing a lock not held is an error condition.
	err = Run(1, shmemOpts(), func(img *Image) {
		lck := NewLock(img)
		lck.Release(1)
	})
	if err == nil {
		t.Fatal("release of unheld lock must panic")
	}
}

func TestTryAcquire(t *testing.T) {
	for _, algo := range []LockAlgo{LockMCS, LockNaiveSpin} {
		t.Run(algo.String(), func(t *testing.T) {
			err := Run(2, lockOpts(algo), func(img *Image) {
				lck := NewLock(img)
				if img.ThisImage() == 1 {
					if !lck.TryAcquire(1) {
						panic("uncontended TryAcquire failed")
					}
				}
				img.SyncAll()
				if img.ThisImage() == 2 {
					if lck.TryAcquire(1) {
						panic("TryAcquire succeeded on a held lock")
					}
				}
				img.SyncAll()
				if img.ThisImage() == 1 {
					lck.Release(1)
				}
				img.SyncAll()
				if img.ThisImage() == 2 {
					if !lck.TryAcquire(1) {
						panic("TryAcquire failed on a free lock")
					}
					lck.Release(1)
				}
				img.SyncAll()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Qnodes must be returned to the non-symmetric buffer: after heavy lock
// traffic the allocator has everything back.
func TestQnodeReclamation(t *testing.T) {
	err := Run(4, shmemOpts(), func(img *Image) {
		before := img.nonsym.avail()
		lck := NewLock(img)
		for i := 0; i < 25; i++ {
			j := i%img.NumImages() + 1
			lck.Acquire(j)
			lck.Release(j)
		}
		img.SyncAll()
		if img.nonsym.avail() != before {
			panic("qnode space leaked")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The MCS lock must hand over in FIFO order: with every image enqueueing
// exactly once while image 1 holds the lock, releases happen in enqueue
// order. We verify fairness statistically: every image gets the lock exactly
// once per round.
func TestMCSLockEveryImageAcquires(t *testing.T) {
	const rounds = 5
	counts := make([]int64, 8)
	err := Run(8, shmemOpts(), func(img *Image) {
		lck := NewLock(img)
		for r := 0; r < rounds; r++ {
			lck.Acquire(3)
			atomic.AddInt64(&counts[img.ThisImage()-1], 1)
			lck.Release(3)
			img.SyncAll() // round barrier: nobody starves
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != rounds {
			t.Fatalf("image %d acquired %d times, want %d", i+1, c, rounds)
		}
	}
}

// Lock timing: MCS over Cray SHMEM must beat both the vendor lock (Cray CAF)
// and MCS over GASNet under contention — the Fig 8 result. Contention is
// serialised through a token ring so the virtual-time comparison is
// deterministic: image k's acquire is causally ordered after image (k-1)'s
// release, which models a steady-state full MCS queue independent of how the
// host scheduler happens to interleave goroutines.
func TestLockCostOrderings(t *testing.T) {
	const rounds = 3
	measure := func(o Options) float64 {
		var worst float64
		err := Run(32, o, func(img *Image) {
			lck := NewLock(img)
			flag := Allocate[int64](img, 1)
			n := img.NumImages()
			me := img.ThisImage()
			next := me%n + 1
			img.SyncAll()
			img.Clock().Reset()
			for r := 1; r <= rounds; r++ {
				tok := int64((r-1)*n + me)
				if !(r == 1 && me == 1) {
					img.wait(flag.off, pgas.CmpGE, tok)
				}
				lck.Acquire(1)
				lck.Release(1)
				flag.PutElem(next, tok+1, 0)
			}
			img.SyncAll()
			if me == 1 {
				worst = img.Clock().Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	titan := func(tk TransportKind, prof string, la LockAlgo) Options {
		o := Options{Machine: fabric.Titan(), Transport: tk, Profile: prof, Locks: la}
		return o
	}
	shmemCost := measure(titan(TransportSHMEM, "Cray-SHMEM", LockMCS))
	vendorCost := measure(titan(TransportSHMEM, "Cray-DMAPP", LockVendor))
	gasnetCost := measure(titan(TransportGASNet, "GASNet-gemini", LockMCS))
	if !(shmemCost < vendorCost) {
		t.Fatalf("UHCAF-SHMEM locks (%v) should beat Cray-CAF locks (%v)", shmemCost, vendorCost)
	}
	if !(shmemCost < gasnetCost) {
		t.Fatalf("UHCAF-SHMEM locks (%v) should beat UHCAF-GASNet locks (%v)", shmemCost, gasnetCost)
	}
}
