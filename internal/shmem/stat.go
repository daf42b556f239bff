package shmem

import "cafshmem/internal/pgas"

// Fault-aware variants of the blocking primitives. OpenSHMEM 1.x has no
// failed-PE semantics of its own; these are the minimal library-level hooks
// the CAF runtime needs to implement Fortran 2018's failed-image model
// (FAIL IMAGE, STAT_FAILED_IMAGE, failed_images) on top of SHMEM — each
// mirrors its blocking sibling's virtual-time arithmetic exactly, differing
// only in how fault conditions surface (returned, not hung or panicked).

// BarrierStat is Barrier with fault status: identical cost model and
// sanitizer accounting, but when PEs have failed or stopped the rendezvous
// completes among the survivors and the fault is returned instead of
// panicking, with every given-up link's destination folded in
// (pgas.PE.BarrierStat). A nil return means every PE arrived.
func (pe *PE) BarrierStat() error {
	_, _, fault := pe.barrierStat(pgas.Call{Op: "Barrier"}, 0)
	return fault
}

// barrierStat is BarrierStat bringing c, whose release action a collective
// allocation's rendezvous carries (heap.go), and the virtual time of further
// barriers behind it; it returns what the release returned and the fault.
// Every PE leaves a rendezvous at one clock with nothing in flight, so a
// barrier entered right there decides nothing and meets nobody: each PE
// performs its clock operations and sanitizer records (the quiet really runs)
// and the host rendezvous does not happen. The barrier reports the fault, so
// the quiets' own reports are dropped.
func (pe *PE) barrierStat(c pgas.Call, further int) (off int64, err, fault error) {
	_ = pe.quiet(-1, true)
	cost := pe.world.barrierNs()
	off, err, fault = pe.p.BarrierStat(cost, c)
	for ; further > 0; further-- {
		_ = pe.quiet(-1, true)
		pe.p.Clock.Advance(cost)
	}
	return off, err, fault
}

// SwapStat atomically stores v and returns the previous value — the
// fetch-and-store used to enqueue on the MCS lock tail (shmem_swap) — with
// fault status: on a failed target the word is frozen, the frozen value is
// returned with ok=false, and the caller decides how to recover. Cost is a full AMO round trip either way — the initiating NIC
// cannot know the target died without waiting out the protocol.
func (pe *PE) SwapStat(target int, sym Sym, idx int, v int64) (int64, bool) {
	return pe.amo("swap", target, sym, idx, pgas.OpSwap, v)
}

// CompareSwapStat atomically stores desired iff the word equals expected,
// returning the previous value (shmem_cswap; success is old == expected),
// with fault status like SwapStat.
func (pe *PE) CompareSwapStat(target int, sym Sym, idx int, expected, desired int64) (int64, bool) {
	pe.checkTarget(target)
	off := pe.wordOff("compare_swap", sym, idx)
	old, ok := pe.p.CompareSwap64Stat(target, off, uint64(expected), uint64(desired), pe.amoPrice(target))
	return int64(old), ok
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
