package mpi3

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// Lock opens a passive-target access epoch on win at target
// (MPI_Win_lock). LockExclusive serialises against other exclusive lockers.
func (pr *Proc) Lock(kind LockKind, target int, win *Win) {
	pr.checkTarget(target)
	e := pr.epochFor(win, true)
	if e.targets[target] || e.all {
		panic(fmt.Sprintf("mpi3: rank %d already holds an epoch on target %d", pr.p.ID, target))
	}
	if kind == LockExclusive {
		win.exclMu.Lock()
		e.heldExcl = append(e.heldExcl, target)
	}
	e.targets[target] = true
	pr.p.Clock.Advance(pr.world.prof.OverheadNs + pr.world.prof.WindowSyncNs)
}

// Unlock closes the epoch on target, completing all operations to it
// (MPI_Win_unlock).
func (pr *Proc) Unlock(target int, win *Win) {
	e := pr.epochFor(win, false)
	if e == nil || !e.targets[target] {
		panic(fmt.Sprintf("mpi3: rank %d unlocking target %d without an epoch", pr.p.ID, target))
	}
	pr.flushEpoch(e)
	delete(e.targets, target)
	for i, t := range e.heldExcl {
		if t == target {
			e.heldExcl = append(e.heldExcl[:i], e.heldExcl[i+1:]...)
			win.exclMu.Unlock()
			break
		}
	}
	pr.p.Clock.Advance(pr.world.prof.OverheadNs + pr.world.prof.WindowSyncNs)
}

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
	pr.flushEpoch(e)
	e.all = false
	pr.p.Clock.Advance(pr.world.prof.OverheadNs + pr.world.prof.WindowSyncNs)
}

func (pr *Proc) requireEpoch(e *epoch, target int) {
	if e == nil || (!e.all && !e.targets[target]) {
		panic(fmt.Sprintf("mpi3: RMA to target %d outside an access epoch", target))
	}
}

// access is the check every put, get and atomic starts with: the rank exists,
// the n bytes at off lie inside the window, and the caller holds an access
// epoch on it toward target. It returns the epoch and the bytes' absolute
// partition offset.
func (pr *Proc) access(op string, win *Win, target int, off int64, n int) (*epoch, int64) {
	pr.checkTarget(target)
	if off < 0 || off+int64(n) > win.size {
		panic(fmt.Sprintf("mpi3: %s of %d bytes at %d overflows %d-byte window", op, n, off, win.size))
	}
	e := pr.epochFor(win, false)
	pr.requireEpoch(e, target)
	return e, win.off + off
}

// RMA is the one entry of MPI_Put and MPI_Get: d, contiguous, with d.Off
// relative to win — Put and Get fill one, a layered runtime hands its own. It
// runs access's checks, makes d.Off absolute and prices the op as a one-sided
// library's plus the window-synchronisation surcharge (one charge with the
// injection). A put is booked on the epoch's horizon, which Flush/Unlock
// complete; a get is modelled as blocking-on-data (the common implementation
// behaviour for passive-target gets followed immediately by a flush).
func (pr *Proc) RMA(win *Win, d *pgas.RMA) {
	n, op := len(d.Local), "put"
	if d.Get {
		op = "get"
	}
	e, abs := pr.access(op, win, d.Target, d.Off, n)
	d.Off = abs
	intra, pairs, prof := pr.intra(d.Target), pr.pairs(), pr.world.prof
	c, set := pgas.Price{Lat: prof.DeliveryNs(intra, pairs)}, &e.pending
	if d.Get {
		c.Inject, set = prof.GetNs(n, intra, pairs)+prof.WindowSyncNs, nil
	} else {
		c.Inject = prof.PutInjectNs(n, intra, pairs) + prof.WindowSyncNs
	}
	pr.p.Issue(d, c, set, nil)
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
	e := pr.epochFor(win, false)
	pr.requireEpoch(e, target)
	pr.flushEpoch(e)
}

// FlushAll completes all outstanding operations on the window
// (MPI_Win_flush_all).
func (pr *Proc) FlushAll(win *Win) {
	e := pr.epochFor(win, false)
	if e == nil || (!e.all && len(e.targets) == 0) {
		panic("mpi3: FlushAll outside an access epoch")
	}
	pr.flushEpoch(e)
}

func (pr *Proc) flushEpoch(e *epoch) {
	prof := pr.world.prof
	pr.p.Clock.Advance(prof.OverheadNs + prof.WindowSyncNs)
	pr.p.Clock.MergeAtLeast(e.pending.Drain())
}

// Fence is the active-target MPI_Win_fence: a collective that closes and
// opens an epoch for everyone.
func (pr *Proc) Fence(win *Win) {
	e := pr.epochFor(win, true)
	pr.flushEpoch(e)
	w := pr.world
	pr.p.Barrier(w.barrierNs() + w.prof.WindowSyncNs)
	// A fence epoch permits RMA to any target until the next fence.
	e.all = true
}

// atomic checks an atomic's word like a put's bytes, charges one modelled atomic
// round trip plus the window surcharge and returns the word's absolute offset.
func (pr *Proc) atomic(win *Win, target int, off int64) int64 {
	_, abs := pr.access("atomic", win, target, off, 8)
	prof := pr.world.prof
	pr.p.Clock.Advance(prof.AtomicRTTNs(pr.intra(target), pr.pairs()) + prof.WindowSyncNs)
	return abs
}

// Accumulate applies MPI_SUM to a 64-bit word in the target window
// (MPI_Accumulate with MPI_LONG_LONG/MPI_SUM).
func (pr *Proc) Accumulate(win *Win, target int, off int64, v int64) {
	pr.FetchOp(win, target, off, pgas.OpAdd, uint64(v))
}

// FetchAndOp is MPI_Fetch_and_op with MPI_SUM on a 64-bit word.
func (pr *Proc) FetchAndOp(win *Win, target int, off int64, v int64) int64 {
	return int64(pr.FetchOp(win, target, off, pgas.OpAdd, uint64(v)))
}

// FetchOp is MPI_Fetch_and_op with a selectable reduction on a 64-bit word:
// pgas.OpAdd is MPI_SUM, OpAnd/OpOr/OpXor the bitwise MPI ops, and OpSwap is
// MPI_REPLACE (fetch the old value, store the new). All flavours pay the same
// modelled cost (see atomic).
func (pr *Proc) FetchOp(win *Win, target int, off int64, op pgas.AtomicOp, v uint64) uint64 {
	abs := pr.atomic(win, target, off)
	return pr.world.pw.RMW64(target, abs, op, v, pr.p.Clock.Now())
}

// CompareAndSwap is MPI_Compare_and_swap on a 64-bit word.
func (pr *Proc) CompareAndSwap(win *Win, target int, off int64, expected, desired int64) int64 {
	abs := pr.atomic(win, target, off)
	return int64(pr.world.pw.CompareSwap64(target, abs, uint64(expected), uint64(desired), pr.p.Clock.Now()))
}

func (pr *Proc) checkTarget(t int) {
	if t < 0 || t >= pr.Size() {
		panic(fmt.Sprintf("mpi3: rank %d out of range [0,%d)", t, pr.Size()))
	}
}
