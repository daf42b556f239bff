package shmem

import (
	"errors"
	"fmt"

	"cafshmem/internal/pgas"
)

// Fault-aware variants of the blocking primitives. OpenSHMEM 1.x has no
// failed-PE semantics of its own; these are the minimal library-level hooks
// the CAF runtime needs to implement Fortran 2018's failed-image model
// (FAIL IMAGE, STAT_FAILED_IMAGE, failed_images) on top of SHMEM — each
// mirrors its blocking sibling's virtual-time arithmetic exactly, differing
// only in how fault conditions surface (returned, not hung or panicked).

// linkPenalty charges the fault plan's link-degradation latency for one
// remote operation issued now. A nil plan (the default) costs one branch and
// zero virtual time, preserving bit-identical fault-free behaviour.
func (pe *PE) linkPenalty() {
	if fp := pe.world.fplan; fp != nil {
		if pen := fp.LinkPenaltyNs(pe.p.ID, pe.p.Clock.Now()); pen > 0 {
			pe.p.Clock.Advance(pen)
		}
	}
}

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
func (pe *PE) BarrierStat() error {
	pe.quiet()
	w := pe.world
	if w.san != nil {
		w.san.recordCollective(pe.p.ID, "Barrier")
	}
	n := w.pw.NumPEs()
	err := pe.p.BarrierTolerant(w.prof.BarrierNs(n, w.machine.NodesFor(n)))
	exh := w.pw.UnreachableDsts()
	if len(pe.unreach) == 0 && len(exh) == 0 {
		return err
	}
	var fe *pgas.ImageFault
	if err != nil && !errors.As(err, &fe) {
		return err // non-fault errors pass through untouched
	}
	var failed, stopped []int
	if fe != nil {
		failed = append(failed, fe.Failed...)
		stopped = fe.Stopped
	}
	for _, d := range exh {
		dup := false
		for _, f := range failed {
			if f == d {
				dup = true
				break
			}
		}
		if !dup {
			failed = append(failed, d)
		}
	}
	combined := pe.unreachFault(failed).(*pgas.ImageFault)
	combined.Stopped = stopped
	return combined
}

// SwapStat is Swap with fault status: on a failed target the word is frozen,
// the frozen value is returned with ok=false, and the caller decides how to
// recover. Cost is a full AMO round trip either way — the initiating NIC
// cannot know the target died without waiting out the protocol.
func (pe *PE) SwapStat(target int, sym Sym, idx int, v int64) (int64, bool) {
	pe.checkTarget(target)
	off := pe.wordOff(sym, idx)
	vis := pe.amoClock(target)
	old, ok := pe.world.pw.RMW64Stat(target, off, pgas.OpSwap, uint64(v), vis)
	return int64(old), ok
}

// CompareSwapStat is CompareSwap with fault status, like SwapStat.
func (pe *PE) CompareSwapStat(target int, sym Sym, idx int, expected, desired int64) (int64, bool) {
	pe.checkTarget(target)
	off := pe.wordOff(sym, idx)
	vis := pe.amoClock(target)
	old, ok := pe.world.pw.CompareSwap64Stat(target, off, uint64(expected), uint64(desired), vis)
	return int64(old), ok
}

// PutMemRepair is the recovery-protocol put: unlike PutMem it lands even in a
// failed PE's partition (fault-recovery walks use dead protocol nodes as
// relay cells) and wakes waiters on every PE. Cost arithmetic is exactly
// PutMem's — a repair message is an ordinary message.
func (pe *PE) PutMemRepair(target int, sym Sym, off int64, data []byte) {
	pe.checkTarget(target)
	if len(data) == 0 {
		return
	}
	if off < 0 || off+int64(len(data)) > sym.Size {
		panic(fmt.Sprintf("shmem: repair put of %d bytes at offset %d overflows %d-byte symmetric object", len(data), off, sym.Size))
	}
	if san := pe.world.san; san != nil {
		san.recordPut(pe.p.ID, target, sym.Off+off, int64(len(data)))
	}
	pe.linkPenalty()
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	pe.p.Clock.Advance(prof.PutInjectNs(len(data), intra, pairs))
	vis := pe.p.Clock.Now() + prof.DeliveryNs(intra, pairs)
	pe.world.pw.RepairWrite(target, sym.Off+off, data, vis)
	pe.notePending(target, vis)
}

// ReadWord64 reads a symmetric 64-bit word together with its visibility
// timestamp, including from failed partitions — the forensic read used by
// recovery protocols to inspect a dead PE's frozen state. Costs a get.
func (pe *PE) ReadWord64(target int, sym Sym, idx int) uint64 {
	pe.checkTarget(target)
	pe.linkPenalty()
	intra, pairs := pe.intra(target), pe.pairs()
	pe.p.Clock.Advance(pe.world.prof.GetNs(8, intra, pairs))
	v, ts := pe.world.pw.ReadUint64Ts(target, pe.wordOff(sym, idx))
	pe.p.Clock.MergeAtLeast(ts)
	return v
}

// MallocStat is the fault-tolerant collective allocator: the surviving PEs
// rendezvous (leader = lowest alive rank), perform the allocation together,
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
