package shmem

import "cafshmem/internal/pgas"

// Remote atomic memory operations on 64-bit symmetric words. These are the
// OpenSHMEM AMOs the paper's CAF runtime leans on: fetch-and-store (Swap)
// and compare-and-swap drive the MCS lock (§IV-D), and fetch-add/and/or/xor
// implement CAF's atomic intrinsics (Table II).
//
// All AMOs are round trips: the caller's clock advances by the full remote
// completion time, and the update is immediately globally visible (OpenSHMEM
// AMO semantics), so nothing is added to the pending (Quiet) set.

func (pe *PE) amoClock(target int) float64 {
	if fp := pe.world.fplan; fp != nil {
		pe.p.LinkPenalty(fp)
	}
	intra, pairs := pe.intra(target), pe.pairs()
	pe.p.Clock.Advance(pe.world.prof.AtomicRTTNs(intra, pairs))
	return pe.p.Clock.Now()
}

func (pe *PE) wordOff(sym Sym, idx int) int64 { return sym.At(int64(idx) * 8) }

// FetchAdd atomically adds v to the word and returns the previous value
// (shmem_longlong_fadd).
func (pe *PE) FetchAdd(target int, sym Sym, idx int, v int64) int64 {
	pe.checkTarget(target)
	off := pe.wordOff(sym, idx)
	vis := pe.amoClock(target)
	return int64(pe.world.pw.RMW64(target, off, pgas.OpAdd, uint64(v), vis))
}

// FetchInc atomically increments the word (shmem_longlong_finc).
func (pe *PE) FetchInc(target int, sym Sym, idx int) int64 {
	return pe.FetchAdd(target, sym, idx, 1)
}

// Add atomically adds without returning the old value (shmem_longlong_add).
// Same remote cost; the initiator still waits for the NIC-level ack.
func (pe *PE) Add(target int, sym Sym, idx int, v int64) {
	pe.FetchAdd(target, sym, idx, v)
}

// Swap atomically stores v and returns the previous value — the
// fetch-and-store used to enqueue on the MCS lock tail (shmem_swap).
func (pe *PE) Swap(target int, sym Sym, idx int, v int64) int64 {
	pe.checkTarget(target)
	off := pe.wordOff(sym, idx)
	vis := pe.amoClock(target)
	return int64(pe.world.pw.RMW64(target, off, pgas.OpSwap, uint64(v), vis))
}

// CompareSwap atomically stores desired iff the word equals expected,
// returning the previous value (shmem_cswap). Success is old == expected.
func (pe *PE) CompareSwap(target int, sym Sym, idx int, expected, desired int64) int64 {
	pe.checkTarget(target)
	off := pe.wordOff(sym, idx)
	vis := pe.amoClock(target)
	return int64(pe.world.pw.CompareSwap64(target, off, uint64(expected), uint64(desired), vis))
}

// FetchAnd atomically ANDs v into the word and returns the previous value.
func (pe *PE) FetchAnd(target int, sym Sym, idx int, v int64) int64 {
	pe.checkTarget(target)
	off := pe.wordOff(sym, idx)
	vis := pe.amoClock(target)
	return int64(pe.world.pw.RMW64(target, off, pgas.OpAnd, uint64(v), vis))
}

// FetchOr atomically ORs v into the word and returns the previous value.
func (pe *PE) FetchOr(target int, sym Sym, idx int, v int64) int64 {
	pe.checkTarget(target)
	off := pe.wordOff(sym, idx)
	vis := pe.amoClock(target)
	return int64(pe.world.pw.RMW64(target, off, pgas.OpOr, uint64(v), vis))
}

// FetchXor atomically XORs v into the word and returns the previous value.
func (pe *PE) FetchXor(target int, sym Sym, idx int, v int64) int64 {
	pe.checkTarget(target)
	off := pe.wordOff(sym, idx)
	vis := pe.amoClock(target)
	return int64(pe.world.pw.RMW64(target, off, pgas.OpXor, uint64(v), vis))
}

// AtomicFetch atomically reads the word (shmem_atomic_fetch).
func (pe *PE) AtomicFetch(target int, sym Sym, idx int) int64 {
	return pe.FetchAdd(target, sym, idx, 0)
}

// AtomicSet atomically writes the word (shmem_atomic_set).
func (pe *PE) AtomicSet(target int, sym Sym, idx int, v int64) {
	pe.Swap(target, sym, idx, v)
}
