package caf

import (
	"regexp"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
)

// The seeded PGAS bugs, caught at run time. Each case executes the path one
// seeded violation took in the fixtures of the static analyzers this repository
// once had (synccheck, collectivecheck, lockcheck, deadlockcheck, symcheck),
// under the sanitizer, and passes when the run reports the bug: a sanitizer
// finding, the library's own panic, or the world's deadlock verdict. The
// fixture and function names are the analyzers'; a case the specification
// allows is listed with no report and must run clean (DESIGN.md, "Correctness
// tooling", says why).

// What reports each class of bug.
const (
	raced    = `sanitizer: race \(PE`
	reused   = `sanitizer: nbi-src-reuse`
	leftHeld = `sanitizer: lock-held`
	cycled   = `sanitizer: lock-order`
	badSym   = `sanitizer: bad-handle \(PE 0\): put through handle`
	hung     = `pgas: deadlock: all \d+ alive PEs blocked`
	// A collective reached by some PEs only: the others leave the job, and
	// the rendezvous they never join error-terminates; when every PE gets
	// through, the call chains differ.
	diverged = `panicked: .*stopped|sanitizer: collective-mismatch`
)

type seededCase struct {
	fixture, fn string
	caught      string // what Run's error must match; "" for a legal case, which must run clean
	run         func() error
}

var seededCases = []seededCase{
	// synccheck: reads racing an incomplete one-sided write.
	{"syncbad", "readAfterPut", raced, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		pe.PutMem(1, data, 0, []byte{1, 2, 3})
		pe.GetMem(1, data, 0, make([]byte, 3))
	})},
	{"syncbad", "typedReadAfterPut", raced, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		shmem.Put(pe, 1, data, 0, []int64{42})
		_ = shmem.G[int64](pe, 1, data, 0)
	})},
	{"syncbad", "branchPut", raced, onEveryPE(func(pe *shmem.PE, data, _ shmem.Sym) {
		if pe.MyPE() == 0 {
			shmem.P(pe, 1, data, 0, int64(7))
		}
		_ = shmem.G[int64](pe, 1, data, 0)
	})},
	{"syncbad", "loopCarried", raced, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		for i := 0; i < 4; i++ {
			_ = shmem.G[int64](pe, 1, data, 0)
			shmem.P(pe, 1, data, 0, int64(i))
		}
	})},
	// A fetching atomic has completed when it returns: its old value came back.
	{"syncbad", "atomicThenRead", "", onPE0(func(pe *shmem.PE, _, flag shmem.Sym) {
		pe.FetchAdd(1, flag, 0, 1)
		_ = shmem.G[int64](pe, 1, flag, 0)
	})},
	{"syncbad", "deferredQuietTooLate", raced, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		pe.PutMem(1, data, 0, []byte{9})
		defer pe.Quiet()
		pe.GetMem(1, data, 0, make([]byte, 1))
	})},
	{"syncbad", "stridedPutThenGather", raced, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		pe.RMA(strided(false, make([]byte, 24)), data, false)
		pe.RMA(strided(true, make([]byte, 24)), data, false)
	})},
	{"syncbad", "vectoredPutThenGather", raced, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		pe.PutMemV(1, data, []int64{0, 64}, 16, make([]byte, 32))
		pe.RMA(runs(true, 0), data, false)
	})},

	// synccheck: nonblocking puts completed too late, pinned sources.
	{"nbibad", "readAfterPutNBI", raced, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		pe.PutMemNBI(1, data, 0, []byte{1, 2, 3})
		pe.GetMem(1, data, 0, make([]byte, 3))
	})},
	{"nbibad", "quietTooLateForTypedNBI", raced, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		pe.PutMemNBI(1, data, 0, pgas.Bytes([]int64{42}))
		_ = shmem.G[int64](pe, 1, data, 0)
		pe.Quiet()
	})},
	{"nbibad", "srcReuseBeforeQuiet", reused, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		buf := []byte{1, 2, 3, 4}
		pe.PutMemNBI(1, data, 0, buf)
		buf[0] = 9
		pe.Quiet()
	})},
	{"nbibad", "typedSrcReuseBeforeQuiet", reused, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		vals := []int64{1, 2, 3}
		pe.PutMemNBI(1, data, 0, pgas.Bytes(vals))
		vals[1]++
		pe.Quiet()
	})},
	{"nbibad", "copyIntoPinnedBuffer", reused, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		buf := make([]byte, 16)
		pe.PutMemNBI(1, data, 0, buf[2:6])
		copy(buf, []byte{7, 7, 7})
		pe.Quiet()
	})},
	{"nbibad", "vectoredReadRace", raced, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		pe.RMA(runs(false, 0, 64), data, true)
		pe.RMA(runs(true, 0), data, false)
		pe.Quiet()
	})},
	{"nbibad", "getNBIRacesBlockingPut", raced, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		shmem.Put(pe, 1, data, 0, []int64{5})
		pe.RMA(&pgas.RMA{Get: true, Target: 1, Local: make([]byte, 8)}, data, true)
		pe.Quiet()
	})},
	{"nbibad", "loopCarriedNBISrc", reused, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		buf := []byte{0}
		for i := 0; i < 4; i++ {
			buf[0] = byte(i)
			pe.PutMemNBI(1, data, int64(i), buf)
		}
		pe.Quiet()
	})},

	// collectivecheck: collectives reached by a PE-dependent subset.
	{"collbad", "rootOnlyMalloc", diverged, spmd(func(pe *shmem.PE) {
		if pe.MyPE() == 0 {
			pe.Malloc(64)
		}
	})},
	{"collbad", "taintedVariable", diverged, images(nil, func(img *Image) {
		if me := img.ThisImage(); me == 1 {
			img.SyncAll()
		}
	})},
	{"collbad", "taintedLoopBound", diverged, spmd(func(pe *shmem.PE) {
		for i := 0; i < pe.MyPE(); i++ {
			pe.Barrier()
		}
	})},
	{"collbad", "divergentAllocate", diverged, images(nil, func(img *Image) {
		if img.ThisImage() == 1 {
			Allocate[int64](img, 4)
		}
	})},
	{"collbad", "divergentSwitch", diverged, spmd(func(pe *shmem.PE) {
		switch pe.MyPE() {
		case 0:
			pe.Barrier()
		default:
		}
		pe.Barrier()
	})},
	{"collbad", "freeInElse", diverged, spmd(func(pe *shmem.PE) {
		data := pe.Malloc(64)
		if pe.MyPE() == 0 {
			pe.PutMem(1, data, 0, []byte{1})
		} else {
			pe.Free(data)
		}
	})},

	// lockcheck: leaked, doubly acquired and wrongly released locks.
	{"lockbad", "leakOnEarlyReturn", leftHeld, onImage1(func(l *Lock) {
		leakOnEarlyReturn := func(fail bool) {
			l.Acquire(2)
			if fail {
				return
			}
			l.Release(2)
		}
		leakOnEarlyReturn(true)
	})},
	{"lockbad", "releaseWrongIndex", `caf: image 1 releasing lock\[3\] it does not hold`, onImage1(func(l *Lock) {
		l.Acquire(2)
		l.Release(3)
		l.Release(2)
	})},
	{"lockbad", "doubleAcquire", `caf: image 1 already holds lock\[2\]`, onImage1(func(l *Lock) {
		l.Acquire(2)
		l.Acquire(2)
		l.Release(2)
	})},
	{"lockbad", "leakAtEnd", leftHeld, onImage1(func(l *Lock) {
		l.Acquire(2)
	})},
	{"lockbad", "leakInSwitch", leftHeld, onImage1(func(l *Lock) {
		l.Acquire(2)
		switch mode := 1; mode {
		case 0:
			l.Release(2)
		default:
			return
		}
	})},
	{"lockbad", "statLeakOnSuccessPath", leftHeld, onImage1(func(l *Lock) {
		if l.AcquireStat(2) != StatOK {
			return
		}
		if abort := true; abort {
			return
		}
		l.ReleaseStat(2)
	})},
	{"lockbad", "statUncheckedLeak", leftHeld, onImage1(func(l *Lock) {
		_ = l.AcquireStat(2)
	})},
	// The failure branch is taken when the lock's home image has failed.
	{"lockbad", "statReleaseOnErrorPath", `caf: image 1 releasing lock\[2\] it does not hold`, images(nil, func(img *Image) {
		l := NewLock(img)
		if img.ThisImage() == 2 {
			img.FailImage()
		}
		img.SyncAllStat()
		if img.ThisImage() == 1 {
			if l.AcquireStat(2) != StatOK {
				l.ReleaseStat(2)
				return
			}
			l.ReleaseStat(2)
		}
	})},

	// deadlockcheck: waits nothing satisfies, and lock-order cycles.
	{"deadbad", "waitForPost", hung, images(nil, func(img *Image) {
		NewEvent(img).Wait(1)
	})},
	{"deadbad", "waitViaHelper", hung, images(nil, func(img *Image) {
		s := NewSignal(img)
		blockOn := func(j int) { s.Wait(j) }
		blockOn(2)
	})},
	{"deadbad", "blockOn", hung, images(nil, func(img *Image) {
		NewSignal(img).Wait(2)
	})},
	{"deadbad", "forward", cycled, abba},
	{"deadbad", "backward", cycled, abba},

	// The interprocedural fixtures: the same bugs through helpers, which a run
	// sees through by construction.
	{"interbad", "launderedPut", raced, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		putHelper := func() { pe.PutMem(1, data, 0, []byte{1}) }
		putHelper()
		pe.GetMem(1, data, 0, make([]byte, 1))
	})},
	{"interbad", "launderedNBI", reused, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		buf := []byte{1}
		nbiHelper := func() { pe.PutMemNBI(1, data, 0, buf) }
		quietElsewhere := func() { pe.QuietTarget(2) }
		nbiHelper()
		quietElsewhere()
		buf[0] = 2
		pe.Quiet()
	})},
	{"interbad", "readThroughHelper", raced, onPE0(func(pe *shmem.PE, data, _ shmem.Sym) {
		readsHelper := func() { pe.GetMem(1, data, 0, make([]byte, 1)) }
		pe.PutMem(1, data, 0, []byte{3})
		readsHelper()
		pe.Quiet()
	})},
	{"interbad", "leakThroughHelper", leftHeld, onImage1(func(l *Lock) {
		lockIt := func() { l.Acquire(2) }
		lockIt()
		if fail := true; fail {
			return
		}
		l.Release(2)
	})},
	{"interbad", "collectiveThroughHelper", diverged, spmd(func(pe *shmem.PE) {
		barrierHelper := func() { pe.Barrier() }
		if pe.MyPE() == 0 {
			barrierHelper()
		}
		pe.Barrier()
	})},

	// symcheck: handles forged, retargeted, or used after the world or the
	// Free that ended them — what the fixture's package-level Leaked and
	// global let a program do.
	{"symbad", "Leaked", badSym, func() error {
		var leaked shmem.Sym
		if err := spmd(func(pe *shmem.PE) {
			data := pe.Malloc(64)
			if pe.MyPE() == 0 { // the handle is symmetric: one PE keeps it
				leaked = data
			}
			pe.Free(data)
		})(); err != nil {
			return err
		}
		return spmd(func(pe *shmem.PE) {
			if pe.MyPE() == 0 {
				pe.PutMem(1, leaked, 0, []byte{1})
			}
			pe.Barrier()
		})()
	}},
	{"symbad", "global", badSym, spmd(func(pe *shmem.PE) {
		var global struct{ handles []shmem.Sym }
		data := pe.Malloc(64)
		global.handles = append(global.handles, data)
		pe.Free(data)
		if pe.MyPE() == 0 {
			pe.PutMem(1, global.handles[0], 0, []byte{1})
		}
		pe.Barrier()
	})},
	{"symbad", "forge", badSym, onObject(func(pe *shmem.PE, _ shmem.Sym) {
		pe.PutMem(1, shmem.Sym{Off: 128, Size: 64}, 0, []byte{1})
	})},
	{"symbad", "retargetOff", badSym, onObject(func(pe *shmem.PE, s shmem.Sym) {
		s.Off += 8
		pe.PutMem(1, s, 0, []byte{1})
	})},
	{"symbad", "retargetSize", badSym, onObject(func(pe *shmem.PE, s shmem.Sym) {
		s.Size = 4096
		pe.PutMem(1, s, 0, []byte{1})
	})},
	{"symclean", "allocateAndUse", "", spmd(func(pe *shmem.PE) {
		data := pe.Malloc(64)
		pe.PutMem(1, data, 8, []byte{1})
		pe.Quiet()
		copied := data
		pe.Free(copied)
	})},
	// The whole-partition view a layered runtime addresses by raw offsets.
	{"symclean", "partitionView", "", spmd(func(pe *shmem.PE) {
		pe.PutMem(1, shmem.Sym{Off: 0, Size: pgas.MaxSegmentBytes}, 4096, []byte{1})
		pe.Barrier()
	})},
}

func TestSeededViolationsCaughtAtRunTime(t *testing.T) {
	// The harnesses alone are clean: what a case reports, its body did.
	for name, run := range map[string]func() error{
		"shmem": onEveryPE(func(*shmem.PE, shmem.Sym, shmem.Sym) {}),
		"caf":   onImage1(func(*Lock) {}),
	} {
		if err := run(); err != nil {
			t.Fatalf("the %s harness is not clean: %v", name, err)
		}
	}
	var fixtures []string
	byFixture := map[string][]seededCase{}
	for _, c := range seededCases {
		if byFixture[c.fixture] == nil {
			fixtures = append(fixtures, c.fixture)
		}
		byFixture[c.fixture] = append(byFixture[c.fixture], c)
	}
	for _, f := range fixtures {
		t.Run(f, func(t *testing.T) {
			for _, c := range byFixture[f] {
				t.Run(c.fn, func(t *testing.T) {
					err := c.run()
					switch {
					case c.caught == "" && err != nil:
						t.Fatalf("a case legal under the specification was reported: %v", err)
					case c.caught != "" && err == nil:
						t.Fatalf("the seeded bug ran clean; want a report matching %q", c.caught)
					case c.caught != "" && !regexp.MustCompile(c.caught).MatchString(err.Error()):
						t.Fatalf("Run = %v; want a report matching %q", err, c.caught)
					}
				})
			}
		})
	}
}

func sanitizedShmem() shmem.Config {
	cfg := shmem.Config{Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM}
	cfg.Sanitize = true
	return cfg
}

// spmd runs body on every PE of a sanitized three-PE OpenSHMEM job.
func spmd(body func(pe *shmem.PE)) func() error {
	return func() error { return shmem.Run(sanitizedShmem(), 3, body) }
}

// onEveryPE runs body on every PE of a sanitized three-PE OpenSHMEM job
// between allocating two symmetric objects, 128 data bytes and an 8-byte
// flag, and completing and freeing them.
func onEveryPE(body func(pe *shmem.PE, data, flag shmem.Sym)) func() error {
	return spmd(func(pe *shmem.PE) {
		data, flag := pe.Malloc(128), pe.Malloc(8)
		body(pe, data, flag)
		pe.Barrier()
		pe.Free(flag)
		pe.Free(data)
	})
}

// strided is a 1-D strided put or get toward PE 1 (shmem_iput/iget, through
// shmem.PE.RMA): local's 8-byte elements at every second element from 0.
func strided(get bool, local []byte) *pgas.RMA {
	return &pgas.RMA{Get: get, Shape: pgas.Strided, Target: 1, Local: local, Unit: 8, Stride: 16}
}

// runs is a vectored put or get toward PE 1 (putmemv/getmemv, through
// shmem.PE.RMA): a 16-byte run at each of offs.
func runs(get bool, offs ...int64) *pgas.RMA {
	return &pgas.RMA{Get: get, Shape: pgas.Runs, Target: 1, Local: make([]byte, 16*len(offs)), Offs: offs, Unit: 16}
}

// onPE0 is onEveryPE with body run by PE 0 alone.
func onPE0(body func(pe *shmem.PE, data, flag shmem.Sym)) func() error {
	return onEveryPE(func(pe *shmem.PE, data, flag shmem.Sym) {
		if pe.MyPE() == 0 {
			body(pe, data, flag)
		}
	})
}

// onObject runs body on PE 0 of a sanitized three-PE OpenSHMEM job with a
// 64-byte symmetric object every PE allocates and frees.
func onObject(body func(pe *shmem.PE, data shmem.Sym)) func() error {
	return spmd(func(pe *shmem.PE) {
		data := pe.Malloc(64)
		if pe.MyPE() == 0 {
			body(pe, data)
		}
		pe.Barrier()
		pe.Free(data)
	})
}

// images runs body on every image of a sanitized three-image caf job over
// OpenSHMEM, with the options tuned by with when it is not nil.
func images(with func(*Options), body func(img *Image)) func() error {
	return func() error {
		opts := shmemOpts()
		opts.Sanitize = true
		if with != nil {
			with(&opts)
		}
		return Run(3, opts, body)
	}
}

// onImage1 runs body on image 1 of images' job with a lock coarray every image
// creates and frees.
func onImage1(body func(l *Lock)) func() error {
	return images(nil, func(img *Image) {
		l := NewLock(img)
		if img.ThisImage() == 1 {
			body(l)
		}
		img.SyncAll()
		l.Deallocate()
	})
}

// abba takes two locks in opposite orders on images 1 and 2, one image after
// the other: no run deadlocks, but two images each holding one would.
var abba = images(nil, func(img *Image) {
	lockA, lockB := NewLock(img), NewLock(img)
	forward := func(j int) {
		lockA.Acquire(j)
		lockB.Acquire(j)
		lockB.Release(j)
		lockA.Release(j)
	}
	backward := func(j int) {
		lockB.Acquire(j)
		lockA.Acquire(j)
		lockA.Release(j)
		lockB.Release(j)
	}
	if img.ThisImage() == 1 {
		forward(1)
	}
	img.SyncAll()
	if img.ThisImage() == 2 {
		backward(1)
	}
	img.SyncAll()
	lockA.Deallocate()
	lockB.Deallocate()
})
