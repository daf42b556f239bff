package pgas

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// PE life-cycle states. A PE is alive while its goroutine runs the SPMD body;
// it becomes stopped when the body returns normally, or failed when the body
// executes a fail-image operation. Failed and stopped are terminal: the
// partition's contents freeze (one-sided writes are dropped), the clock stops
// advancing (its goroutine is gone), and the PE no longer participates in
// barriers.
type peState = int32

const (
	stateAlive peState = iota
	stateStopped
	stateFailed
)

// ImageFault reports that a blocking operation involved PEs that have failed
// or stopped — the substrate form of Fortran 2018's STAT_FAILED_IMAGE /
// STAT_STOPPED_IMAGE conditions. Layers above translate it into their own
// status codes instead of hanging.
type ImageFault struct {
	Failed  []int // PE ranks that executed a fail-image operation
	Stopped []int // PE ranks whose body returned while others still wait
}

func (e *ImageFault) Error() string {
	switch {
	case len(e.Failed) > 0 && len(e.Stopped) > 0:
		return fmt.Sprintf("pgas: image fault (failed PEs %v, stopped PEs %v)", e.Failed, e.Stopped)
	case len(e.Failed) > 0:
		return fmt.Sprintf("pgas: image fault (failed PEs %v)", e.Failed)
	default:
		return fmt.Sprintf("pgas: image fault (stopped PEs %v)", e.Stopped)
	}
}

// peFailed is the panic sentinel a failing PE's goroutine unwinds with; Run
// treats it as a clean (non-poisoning) exit.
type peFailed struct{ id int }

// Fail marks the calling PE as failed and unwinds its goroutine — the
// substrate operation behind Fortran's FAIL IMAGE. The partition freezes in
// its current state (remaining readable for fault-recovery protocols), every
// blocked PE in the world is woken so waits on the dead PE can be detected,
// and the barrier loses a participant. Must be called from the PE's own
// goroutine.
func (p *PE) Fail() {
	p.world.depart(p, stateFailed)
	panic(peFailed{p.ID})
}

// World returns the world this PE belongs to (for layered runtimes that need
// world-level fault state from a PE handle).
func (p *PE) World() *World { return p.world }

// depart transitions a PE out of the alive state, releases any barrier that
// now has all remaining participants, and wakes every waiter so blocked PEs
// re-evaluate who they are waiting on. Safe to call at most once per PE; the
// second and later calls are no-ops. The transition is one compare-and-swap
// and takes no world-wide lock: the counter moves after the state, so a
// reader that sees the count sees the state, and both before the barrier
// hears of the departure.
func (w *World) depart(p *PE, to peState) {
	if !atomic.CompareAndSwapInt32(&w.states[p.ID], stateAlive, to) {
		return
	}
	if to == stateFailed {
		w.nFailed.Add(1)
	} else {
		w.nStopped.Add(1)
	}
	w.barrier.depart(p.ID)
	// Wake only partitions with a registered waiter, and none while the world
	// holds no watch: the state change above is sequenced before the fan-out's
	// loads, and a waiter registers before re-checking fault state, so either
	// the fan-out sees its registration or it sees the departure in its own
	// entry checks (World.wakeWatchers).
	w.wakeWatchers(nil)
}

// markStopped records a normal body return (used by Run).
func (w *World) markStopped(p *PE) { w.depart(p, stateStopped) }

// StateOf reports a PE's life-cycle state without blocking.
func (w *World) stateOf(pe int) peState { return atomic.LoadInt32(&w.states[pe]) }

// Alive reports whether the PE is still executing its body.
func (w *World) Alive(pe int) bool { return w.stateOf(pe) == stateAlive }

// Failed reports whether the PE executed a fail-image operation.
func (w *World) Failed(pe int) bool { return w.stateOf(pe) == stateFailed }

// Stopped reports whether the PE's body returned normally.
func (w *World) Stopped(pe int) bool { return w.stateOf(pe) == stateStopped }

// AnyFailed reports whether any PE has failed — one atomic load, so callers
// can gate fault-recovery work on it without cost in the fault-free case.
func (w *World) AnyFailed() bool { return w.nFailed.Load() > 0 }

// FailedCount returns how many PEs have failed so far. The count is monotonic,
// which makes it usable as a recheck watermark: a blocked protocol waiter
// re-runs its recovery walk exactly when the count exceeds what its last walk
// observed, regardless of whether the failure happened before or after it
// started waiting.
func (w *World) FailedCount() int { return int(w.nFailed.Load()) }

// FailedPEs returns the failed PE ranks in ascending order.
func (w *World) FailedPEs() []int { return w.ranksIn(stateFailed) }

func (w *World) ranksIn(s peState) []int {
	var out []int
	for i := range w.states {
		if w.stateOf(i) == s {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// imageFaultErr builds the current fault report, or nil when every PE is
// alive.
func (w *World) imageFaultErr() error {
	if w.nFailed.Load() == 0 && w.nStopped.Load() == 0 {
		return nil
	}
	return &ImageFault{Failed: w.ranksIn(stateFailed), Stopped: w.ranksIn(stateStopped)}
}

// failedErr returns the world poison error, if any, without panicking.
func (w *World) failedErr() error {
	if !w.poisoned.Load() {
		return nil
	}
	w.failMu.Lock()
	defer w.failMu.Unlock()
	return w.failed
}

// --- quiescence ---

// World.awake counts the PE goroutines of the current Run that have not
// returned and are not asleep in a pgas wait — the only things that can wake
// a sleeper, since every wake source inside a Run is a PE goroutine. A PE
// leaves the count under its partition lock immediately before it sleeps
// (PE.block, the one sleep), its waker puts it back under that lock as it
// delivers the wake (PE.wakeLocked), and a returning PE goroutine leaves it
// for good (exit). Whoever takes it to zero while goroutines remain has
// therefore proved deadlock, and says so at once.

// exit is a PE goroutine's return, after its departure has woken whom it
// wakes. exitedN moves first: once awake reads zero no other goroutine is
// between the two, so the load sees every return there will be.
func (w *World) exit() {
	w.exitedN.Add(1)
	if w.awake.Add(-1) == 0 && int(w.exitedN.Load()) < w.n {
		w.deadlock()
	}
}

// deadlockLines bounds the per-PE part of a deadlock report.
const deadlockLines = 16

// deadlock poisons the world with the quiescence verdict. Its caller took
// awake to zero and holds no lock; every PE goroutine left is asleep (the
// caller, if it is a sleeper, as good as), so the walk over the wait records
// is an exact snapshot of what each one is blocked on. A world already
// poisoned is unwinding, not deadlocked.
func (w *World) deadlock() {
	if w.poisoned.Load() {
		return
	}
	var lines []string
	var alive, departed, waits, barriers int
	for i := range w.pes {
		p := &w.pes[i]
		on, inBarrier := w.blockedOn(p)
		if on == "" {
			continue
		}
		if inBarrier {
			barriers++
		} else {
			waits++
		}
		who := ""
		if w.Alive(p.ID) {
			alive++
		} else {
			departed++
			who = " (failed, unwinding)"
		}
		if len(lines) < deadlockLines {
			lines = append(lines, fmt.Sprintf("PE %d%s: %s", p.ID, who, on))
		}
	}
	msg := fmt.Sprintf("pgas: deadlock: all %d alive PEs blocked and no PE left to wake them", alive)
	if departed > 0 {
		msg += fmt.Sprintf(" (and %d departed PEs still blocked)", departed)
	}
	if fe := w.imageFaultErr(); fe != nil {
		msg += " (" + fe.Error() + ")"
	}
	if ur := w.unreachableLinks(); len(ur) > 0 {
		msg += fmt.Sprintf(" (unreachable links after retry exhaustion: %v)", ur)
	}
	msg += ": " + strings.Join(lines, "; ")
	if n := waits + barriers; n > len(lines) {
		msg += fmt.Sprintf("; and %d more (%d in a wait, %d in the barrier in all)", n-len(lines), waits, barriers)
	}
	w.poison(fmt.Errorf("%s", msg))
}

// blockedOn describes the wait p's goroutine sleeps in — its registered watch
// with the watched word and the time of the last write to it, or (inBarrier)
// the call of its rendezvous with the shard's progress — and is empty when it
// sleeps in neither.
func (w *World) blockedOn(p *PE) (on string, inBarrier bool) {
	p.mu.Lock()
	wt := p.watch
	p.mu.Unlock()
	if q := wt.on; q != nil {
		if on = "wait "; q != p {
			on = fmt.Sprintf("wait on PE %d ", q.ID)
		}
		return on + q.describeWatched(&wt), false
	}
	b := w.barrier
	sh := &b.shards[p.ID/b.chunk]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !b.arena[p.ID].waiting {
		return "", false
	}
	return fmt.Sprintf("%v rendezvous gen %d, shard %d, %d/%d arrived", sh.call, sh.gen, p.ID/b.chunk, sh.count, sh.alive), true
}

// describeWatched describes the range of q's partition that wt watches: the
// range, the word it holds when it is one, and the time of the last write to
// it. It takes q's lock, with the waiter's dropped, as a remote wait does, and
// unlocks through a defer, so a panic here cannot leave it held.
func (q *PE) describeWatched(wt *watch) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := fmt.Sprintf("[%#x,+%d)", wt.off, wt.n)
	if wt.n == 8 {
		var b [8]byte
		s += fmt.Sprintf(" = %#x", binary.NativeEndian.Uint64(q.seg.view(wt.off, 8, b[:])))
	}
	return s + fmt.Sprintf(", last write t=%g", max(q.rangeTs(wt.off, wt.n), wt.ts))
}

// --- fault-aware one-sided access ---

// RepairWrite is the privileged store used by fault-recovery protocols (the
// CAF MCS-lock repair): unlike Write it lands even in a failed PE's frozen
// partition — dead protocol nodes act as relay cells that survivors inspect —
// and it wakes waiters on every PE, because a repair step can change protocol
// state that another survivor is watching through a dead intermediary.
// Callers charge virtual time exactly as for the equivalent ordinary write.
func (w *World) RepairWrite(target int, off int64, data []byte, visibleAt float64) {
	if len(data) == 0 {
		return
	}
	checkRange("repair write", off, int64(len(data)))
	p := w.part(target)
	// Same waiter-gated fan-out as depart: the repair write completes (and
	// releases p.mu) before the waiter scan, so a waiter that registers too
	// late to be woken here observes the repaired state in its own entry
	// checks instead.
	defer w.wakeWatchers(p)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.store(off, data, visibleAt)
}

// ReadUint64Ts reads the 64-bit word at (target, off) together with its
// recorded visibility timestamp, including from failed partitions — the
// forensic read fault-recovery walks rely on. The caller merges the timestamp
// to preserve virtual-time causality across a takeover.
func (w *World) ReadUint64Ts(target int, off int64) (uint64, float64) {
	checkRange("read", off, 8)
	p := w.part(target)
	p.mu.Lock()
	defer p.mu.Unlock()
	var b [8]byte
	p.seg.readAt(off, b[:])
	return binary.NativeEndian.Uint64(b[:]), p.rangeTs(off, 8)
}

// ErrWaitRecheck is the sentinel a WaitWordStat onEvent callback returns to
// interrupt the wait without failing it: the caller re-examines protocol
// state (e.g. runs a lock-queue repair walk) and usually re-enters the wait.
var ErrWaitRecheck = fmt.Errorf("pgas: wait interrupted for fault recheck")

// WaitWordStat is WaitWord with fault awareness: instead of panicking when the
// world is poisoned it returns the error, and the optional onEvent hook runs on
// every wake-up (under the partition lock — it must not block or initiate
// communication). onEvent returning a non-nil error aborts the wait with that
// error; returning ErrWaitRecheck is the conventional way to hand control back
// to the caller for recovery work that needs communication. The last observed
// word is returned even when the wait is aborted.
func (p *PE) WaitWordStat(off int64, cmp Cmp, operand int64, onEvent func() error) (got int64, ts float64, err error) {
	ts, err = p.wait(p, off, 8, func(b []byte) bool {
		got = int64(binary.NativeEndian.Uint64(b))
		return cmp.Holds(got, operand)
	}, onEvent)
	return got, ts, err
}
