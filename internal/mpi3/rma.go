package mpi3

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// LockAll opens a shared epoch on every rank (MPI_Win_lock_all) — the idiom
// one-sided benchmarks (and PGAS runtimes over MPI) use.
func (pr *Proc) LockAll(win *Win) {
	e := pr.epochFor(win, true)
	if e.all {
		panic("mpi3: LockAll on an already-locked window")
	}
	e.all = true
	pr.p.Clock.Advance(pr.world.prof.OverheadNs + pr.world.prof.WindowSyncNs)
}

// UnlockAll closes the shared epoch (MPI_Win_unlock_all).
func (pr *Proc) UnlockAll(win *Win) {
	e := pr.epochFor(win, false)
	if e == nil || !e.all {
		panic("mpi3: UnlockAll without LockAll")
	}
	_ = pr.flushEpoch(e, false) // no stat: nothing to report
	e.all = false
	pr.p.Clock.Advance(pr.world.prof.OverheadNs + pr.world.prof.WindowSyncNs)
}

func (pr *Proc) requireEpoch(e *epoch, target int) {
	if e == nil || !e.all {
		panic(fmt.Sprintf("mpi3: RMA to target %d outside an access epoch", target))
	}
}

// access is the check every put, get and atomic starts with: the rank exists,
// the n bytes at off lie inside the window, and the caller holds an access
// epoch on it toward target; under the sanitizer, the window must also be
// live (pgas.PE.CheckHandle). It returns the epoch and the bytes' absolute
// partition offset.
func (pr *Proc) access(op string, win *Win, target int, off, n int64) (*epoch, int64) {
	pr.checkTarget(target)
	if off < 0 || off+n > win.size {
		panic(fmt.Sprintf("mpi3: %s of %d bytes at %d overflows %d-byte window", op, n, off, win.size))
	}
	pr.p.CheckHandle(op, win.off, win.size)
	e := pr.epochFor(win, false)
	pr.requireEpoch(e, target)
	return e, win.off + off
}

// RMA is the one entry of MPI_Put and MPI_Get: d with d.Off relative to win —
// Put and Get fill a contiguous one, a layered runtime hands its own,
// contiguous, vectored or strided. It checks d's geometry (pgas.RMA.Span),
// runs access's checks on the bytes d spans, makes d.Off absolute and prices
// each message as a one-sided library's plus the window-synchronisation
// surcharge (one charge with the injection). MPI_Put takes one origin/target
// pair per call, so a run or element is a message of its own, as DART-MPI
// decomposes. A put is booked on the epoch's horizon, which Flush/Unlock
// complete; a get is modelled as blocking-on-data (the common implementation
// behaviour for passive-target gets followed immediately by a flush).
func (pr *Proc) RMA(win *Win, d *pgas.RMA) {
	n, op := len(d.Local), "put"
	if d.Get {
		op = "get"
	}
	if d.Shape == pgas.Runs || d.Shape == pgas.Strided {
		n = d.Unit
	}
	lo, hi := d.Span()
	e, _ := pr.access(op, win, d.Target, lo, hi-lo)
	d.Off += win.off
	intra, pairs, prof := pr.intra(d.Target), pr.pairs(), pr.world.prof
	c, set := pgas.Price{Lat: prof.DeliveryNs(intra, pairs)}, &e.pending
	if d.Get {
		c.Inject, set = prof.GetNs(n, intra, pairs)+prof.WindowSyncNs, nil
	} else {
		c.Inject = prof.PutInjectNs(n, intra, pairs) + prof.WindowSyncNs
	}
	pr.p.IssueRuns(d, c, set)
}

// Put is MPI_Put: one-sided write into the target's window region.
func (pr *Proc) Put(win *Win, target int, off int64, data []byte) {
	pr.RMA(win, &pgas.RMA{Target: target, Off: off, Local: data})
}

// Get is MPI_Get: one-sided read from the target's window region.
func (pr *Proc) Get(win *Win, target int, off int64, dst []byte) {
	pr.RMA(win, &pgas.RMA{Get: true, Target: target, Off: off, Local: dst})
}

// Flush completes all outstanding operations to target (MPI_Win_flush).
func (pr *Proc) Flush(target int, win *Win) {
	pr.checkTarget(target)
	e := pr.epochFor(win, false)
	pr.requireEpoch(e, target)
	_ = pr.flushEpoch(e, false) // no stat: nothing to report
}

// FlushAll completes all outstanding operations on the window
// (MPI_Win_flush_all). A target given up after retry exhaustion
// error-terminates here (pgas.PE.Complete).
func (pr *Proc) FlushAll(win *Win) { _ = pr.flushAll(win, false) } // no stat: nothing to report

// FlushAllStat is FlushAll that returns, as a *pgas.ImageFault, the targets
// with puts outstanding that had failed and those given up: the report ULFM's
// MPI_ERR_PROC_FAILED carries.
func (pr *Proc) FlushAllStat(win *Win) error { return pr.flushAll(win, true) }

func (pr *Proc) flushAll(win *Win, stat bool) error {
	e := pr.epochFor(win, false)
	if e == nil || !e.all {
		panic("mpi3: FlushAll outside an access epoch")
	}
	return pr.flushEpoch(e, stat)
}

// flushEpoch completes the epoch's puts.
func (pr *Proc) flushEpoch(e *epoch, stat bool) error {
	prof := pr.world.prof
	return pr.p.Complete(&e.pending, nil, -1, prof.OverheadNs+prof.WindowSyncNs, stat)
}

// Fence is the active-target MPI_Win_fence: a collective that closes and
// opens an epoch for everyone. A failed or stopped rank is error termination.
func (pr *Proc) Fence(win *Win) { _ = pr.fence(win, false) } // no stat: it panics

// FenceStat is Fence among the ranks left, returning the fault its
// rendezvous reports (pgas.PE.BarrierTolerantDo) in place of the flush's.
func (pr *Proc) FenceStat(win *Win) error { return pr.fence(win, true) }

func (pr *Proc) fence(win *Win, stat bool) error {
	e := pr.epochFor(win, true)
	_ = pr.flushEpoch(e, stat)
	pr.p.RecordCollective("Fence", win.off)
	w := pr.world
	cost := w.barrierNs() + w.prof.WindowSyncNs
	var err error
	if stat {
		err = pr.p.BarrierTolerantDo(cost, nil, nil, 0)
	} else {
		pr.p.Barrier(cost)
	}
	// A fence epoch permits RMA to any target until the next fence.
	e.all = true
	return err
}

// atomic checks an atomic's word like a put's bytes and returns its absolute
// offset and price: one round trip plus the window surcharge.
func (pr *Proc) atomic(win *Win, target int, off int64) (int64, pgas.Price) {
	_, abs := pr.access("atomic", win, target, off, 8)
	prof := pr.world.prof
	return abs, pgas.Price{Inject: prof.AtomicRTTNs(pr.intra(target), pr.pairs()) + prof.WindowSyncNs}
}

// FetchOp is MPI_Fetch_and_op with a selectable reduction on a 64-bit word:
// pgas.OpAdd is MPI_SUM, OpAnd/OpOr/OpXor the bitwise MPI ops, and OpSwap is
// MPI_REPLACE (fetch the old value, store the new). All flavours pay the same
// modelled cost (see atomic). ok is false when the target has failed.
func (pr *Proc) FetchOp(win *Win, target int, off int64, op pgas.AtomicOp, v uint64) (old uint64, ok bool) {
	abs, c := pr.atomic(win, target, off)
	return pr.p.RMW64Stat(target, abs, op, v, c)
}

// CompareAndSwap is MPI_Compare_and_swap on a 64-bit word, with FetchOp's ok.
func (pr *Proc) CompareAndSwap(win *Win, target int, off int64, expected, desired int64) (int64, bool) {
	abs, c := pr.atomic(win, target, off)
	old, ok := pr.p.CompareSwap64Stat(target, abs, uint64(expected), uint64(desired), c)
	return int64(old), ok
}

func (pr *Proc) checkTarget(t int) {
	if t < 0 || t >= pr.Size() {
		panic(fmt.Sprintf("mpi3: rank %d out of range [0,%d)", t, pr.Size()))
	}
}
