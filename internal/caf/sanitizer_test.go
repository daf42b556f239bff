package caf

import (
	"math"
	"strings"
	"testing"
)

// The DeferredQuiet ablation removes the conservative quiet-after-put rule of
// §IV-B, which is exactly the weakened semantics the sanitizer can observe: a
// co-indexed get racing the image's own un-quieted put. The sanitizer sits
// under every library's puts and gets, so it catches the race on every
// transport: at OpenSHMEM's quiet, GASNet's sync and MPI-3's window flush.
func TestSanitizerFlagsDeferredQuietRace(t *testing.T) {
	eachTransport(t, func(t *testing.T, opts Options) {
		opts.DeferredQuiet = true
		opts.Sanitize = true
		err := Run(2, opts, func(img *Image) {
			x := Allocate[int64](img, 4)
			if img.ThisImage() == 1 {
				x.PutElem(2, 7, 0)  // x(1)[2] = 7, quiet deferred
				_ = x.GetElem(2, 0) // reads x(1)[2] before the put completed
			}
			img.SyncAll()
			x.Deallocate()
		})
		if err == nil {
			t.Fatal("sanitizer missed the deferred-quiet race")
		}
		for _, want := range []string{"race", "un-quieted put"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not mention %q", err, want)
			}
		}
	})
}

// Under the default conservative rule the identical program is correctly
// synchronised: every put is quieted before the get, so a sanitized run is
// clean. This is the dynamic counterpart of §IV-B's translation argument.
func TestSanitizerCleanWithConservativeQuiet(t *testing.T) {
	eachTransport(t, func(t *testing.T, opts Options) {
		opts.Sanitize = true
		err := Run(2, opts, func(img *Image) {
			x := Allocate[int64](img, 4)
			if img.ThisImage() == 1 {
				x.PutElem(2, 7, 0)
				if got := x.GetElem(2, 0); got != 7 {
					panic("conservative quiet lost the put")
				}
			}
			img.SyncAll()
			x.Deallocate()
		})
		if err != nil {
			t.Fatalf("conservatively-quieted run flagged: %v", err)
		}
	})
}

// A coarray that is allocated but never deallocated surfaces as a
// symmetric-heap leak at job end (runtime-internal allocations do not). Only
// OpenSHMEM's heap returns space, so only it reports leaks.
func TestSanitizerFlagsCoarrayLeak(t *testing.T) {
	eachTransport(t, func(t *testing.T, opts Options) {
		opts.Sanitize = true
		err := Run(2, opts, func(img *Image) {
			Allocate[int64](img, 8) // never deallocated
			img.SyncAll()
		})
		if err == nil {
			t.Fatal("sanitizer missed the leaked coarray")
		}
		if !strings.Contains(err.Error(), "never freed") {
			t.Fatalf("error %q does not mention the leak", err)
		}
	})
}

// A caf lock is named by its word offset and image, so two distinct locks
// left held on one image are two findings, not one lock "acquired 2 times".
func TestSanitizerNamesEachCafLock(t *testing.T) {
	opts := shmemOpts()
	opts.Sanitize = true
	err := Run(2, opts, func(img *Image) {
		a, b := NewLock(img), NewLock(img)
		if img.ThisImage() == 1 {
			a.Acquire(2)
			b.Acquire(2) // both left held
		}
	})
	if err == nil || strings.Count(err.Error(), "lock-held") != 2 || strings.Contains(err.Error(), "2 time(s)") {
		t.Fatalf("want two lock-held findings, one per lock, got %v", err)
	}
}

// Taking two locks in opposite orders on two images is a deadlock the
// schedule merely avoided (here the images take turns); taking them in one
// order everywhere is clean, and so is an inner lock only tried, which waits
// for nothing.
func TestSanitizerFlagsLockOrderCycle(t *testing.T) {
	for _, tc := range []struct {
		name            string
		opposite, tried bool
	}{{"opposite", true, false}, {"one-order", false, false}, {"opposite-tried", true, true}} {
		opts := gasnetOpts()
		opts.Sanitize = true
		err := Run(2, opts, func(img *Image) {
			a, b := NewLock(img), NewLock(img)
			first, second := a, b
			if tc.opposite && img.ThisImage() == 2 {
				first, second = b, a
			}
			for turn := 1; turn <= 2; turn++ {
				if img.ThisImage() == turn {
					first.Acquire(1)
					if tc.tried {
						second.TryAcquire(1)
					} else {
						second.Acquire(1)
					}
					second.Release(1)
					first.Release(1)
				}
				img.SyncAll()
			}
			b.Deallocate()
			a.Deallocate()
		})
		want := tc.opposite && !tc.tried
		if got := err != nil && strings.Contains(err.Error(), "lock-order"); got != want || !want && err != nil {
			t.Errorf("%s: Run = %v", tc.name, err)
		}
	}
}

// Locks, events, atomics, teams and collectives all allocate symmetric memory
// inside the runtime; a sanitized run of the full feature surface must be
// clean — runtime-lifetime allocations are exempt from leak reporting.
func TestSanitizerCleanAcrossRuntimeFeatures(t *testing.T) {
	eachTransport(t, func(t *testing.T, opts Options) {
		opts.Sanitize = true
		if err := Run(4, opts, featureSweep); err != nil {
			t.Fatalf("sanitized feature sweep flagged: %v", err)
		}
	})
}

// featureSweep exercises the runtime's whole surface, cleanly synchronised and
// without a contended lock or atomic word, whose host arrival order would move
// the clocks from run to run.
func featureSweep(img *Image) {
	lck := NewLock(img)
	ev := NewEvent(img)
	av := NewAtomicVar(img)
	sig := NewSignal(img)
	x := Allocate[int64](img, 4, 4)
	me, n := img.ThisImage(), img.NumImages()
	right, left := me%n+1, (me+n-2)%n+1
	lck.Acquire(me)
	av.Add(me, 1)
	lck.Release(me)
	if me == 2 {
		ev.Post(1)
	}
	if me == 1 {
		ev.Wait(1)
	}
	x.Put(right, All(4, 4), make([]int64, 16))
	x.PutAsync(right, Section{{Lo: 0, Hi: 3, Step: 2}, {Lo: 0, Hi: 3, Step: 1}}, make([]int64, 8))
	img.SyncMemory()
	x.PutSignalAsync(right, Section{{Lo: 0, Hi: 3, Step: 1}, {Lo: 1, Hi: 1, Step: 1}}, []int64{1, 2, 3, 4}, sig)
	sig.Wait(left)
	img.SyncImages(left, right)
	sum := []int64{int64(me)}
	CoSum(img, sum, 0)
	if sum[0] != int64(n*(n+1)/2) {
		panic("co_sum wrong under sanitizer")
	}
	team := img.FormTeam(int64(me % 2))
	team.Sync()
	img.SyncAll()
	_ = x.Get(right, All(4, 4))
	img.SyncAll()
	x.Deallocate()
	lck.Deallocate()
}

// The sanitizer moves no clock: on every transport, a clean sanitized run ends
// with every image's virtual clock bit-identical to the same run unsanitized,
// as pgas.Options promises for each of its fields.
func TestSanitizerMovesNoClock(t *testing.T) {
	eachTransport(t, func(t *testing.T, opts Options) {
		var clocks [2][4]float64
		for i, sanitize := range []bool{false, true} {
			opts.Sanitize = sanitize
			if err := Run(4, opts, func(img *Image) {
				featureSweep(img)
				clocks[i][img.ThisImage()-1] = img.Clock().Now()
			}); err != nil {
				t.Fatalf("sanitize=%v: %v", sanitize, err)
			}
		}
		for im := range clocks[0] {
			if math.Float64bits(clocks[0][im]) != math.Float64bits(clocks[1][im]) {
				t.Errorf("image %d: clock %v unsanitized, %v sanitized", im+1, clocks[0][im], clocks[1][im])
			}
		}
	})
}
