package shmem

import (
	"encoding/binary"
	"errors"

	"cafshmem/internal/pgas"
)

// Fault-aware variants of the blocking primitives. OpenSHMEM 1.x has no
// failed-PE semantics of its own; these are the minimal library-level hooks
// the CAF runtime needs to implement Fortran 2018's failed-image model
// (FAIL IMAGE, STAT_FAILED_IMAGE, failed_images) on top of SHMEM — each
// mirrors its blocking sibling's virtual-time arithmetic exactly, differing
// only in how fault conditions surface (returned, not hung or panicked).

// BarrierStat is Barrier with fault status: identical cost model and
// sanitizer accounting, but when PEs have failed or stopped the rendezvous
// completes among the survivors and the fault is returned instead of
// panicking. A nil return means every PE arrived.
//
// Given-up links (retry exhaustion on a lossy fabric) fold in too — and
// unlike QuietStat's PE-local view, EVERY participant reports them: the
// barrier is the propagation point. A sender declares a link dead strictly
// before entering the barrier, so after the rendezvous all PEs observe the
// same set (world.UnreachableDsts) at the same barrier generation and can
// abandon a phase together, which is what keeps degraded runs out of
// asymmetric collectives (and therefore out of a deadlock).
func (pe *PE) BarrierStat() error { return pe.barrierStat(nil, 0, 0) }

// barrierStat is BarrierStat with what a collective allocation asks of its
// rendezvous (heap.go): a release action, run once on the world and arg, and
// the virtual time of further barriers behind it. Every PE leaves a rendezvous
// at one clock with nothing in flight, so a barrier entered right there
// decides nothing: each PE performs its clock operations and sanitizer records
// (the quiet really runs) and the host rendezvous does not happen.
func (pe *PE) barrierStat(act pgas.ReleaseFunc, arg int64, further int) error {
	pe.def.quiet(false)
	w := pe.world
	pe.p.RecordCollective("Barrier")
	cost := w.barrierNs()
	err := pe.p.BarrierTolerantDo(cost, act, w, arg)
	for ; further > 0; further-- {
		pe.def.quiet(false)
		pe.p.RecordCollective("Barrier")
		pe.p.Clock.Advance(cost)
	}
	exh := w.pw.UnreachableDsts()
	if len(exh) == 0 {
		return err
	}
	var fe *pgas.ImageFault
	if err != nil && !errors.As(err, &fe) {
		return err // non-fault errors pass through untouched
	}
	combined := &pgas.ImageFault{}
	if fe != nil {
		combined.Failed = append(combined.Failed, fe.Failed...)
		combined.Stopped = fe.Stopped
	}
	combined.Failed = appendMissing(combined.Failed, exh)
	return combined
}

// SwapStat is Swap with fault status: on a failed target the word is frozen,
// the frozen value is returned with ok=false, and the caller decides how to
// recover. Cost is a full AMO round trip either way — the initiating NIC
// cannot know the target died without waiting out the protocol.
func (pe *PE) SwapStat(target int, sym Sym, idx int, v int64) (int64, bool) {
	pe.checkTarget(target)
	off := pe.wordOff("swap", sym, idx)
	vis := pe.amoClock(target)
	old, ok := pe.world.pw.RMW64Stat(target, off, pgas.OpSwap, uint64(v), vis)
	return int64(old), ok
}

// CompareSwapStat is CompareSwap with fault status, like SwapStat.
func (pe *PE) CompareSwapStat(target int, sym Sym, idx int, expected, desired int64) (int64, bool) {
	pe.checkTarget(target)
	off := pe.wordOff("compare_swap", sym, idx)
	vis := pe.amoClock(target)
	old, ok := pe.world.pw.CompareSwap64Stat(target, off, uint64(expected), uint64(desired), vis)
	return int64(old), ok
}

// PutMemRepair is the recovery-protocol put: unlike PutMem it lands even in a
// failed PE's partition (fault-recovery walks use dead protocol nodes as
// relay cells) and wakes waiters on every PE. Cost arithmetic is exactly
// PutMem's — a repair message is an ordinary message.
func (pe *PE) PutMemRepair(target int, sym Sym, off int64, data []byte) {
	pe.def.issue(&pgas.RMA{Shape: pgas.Forensic, Target: target, Off: off, Local: data}, sym, blocking, nil)
}

// ReadWord64 reads a symmetric 64-bit word together with its visibility
// timestamp, including from failed partitions — the forensic read used by
// recovery protocols to inspect a dead PE's frozen state. Costs a get.
func (pe *PE) ReadWord64(target int, sym Sym, idx int) uint64 {
	word := pe.staging(8)
	pe.def.issue(&pgas.RMA{Get: true, Shape: pgas.Forensic, Target: target, Off: int64(idx) * 8, Local: word}, sym, blocking, nil)
	return binary.NativeEndian.Uint64(word)
}

// MallocStat is the fault-tolerant collective allocator: the surviving PEs
// rendezvous (whoever releases it allocates), perform the allocation together,
// and each receives the handle plus the fault status observed during the
// rendezvous (Fortran: ALLOCATE with STAT= — the allocation is still
// performed on the active images). In a fault-free world the behaviour and
// virtual-time cost are identical to Malloc.
func (pe *PE) MallocStat(size int64) (Sym, error) {
	sym, allocErr, faultErr := pe.mallocInner(size)
	if allocErr != nil {
		return Sym{}, allocErr
	}
	return sym, faultErr
}
