package shmem

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// Remote atomic memory operations on 64-bit symmetric words. These are the
// OpenSHMEM AMOs the paper's CAF runtime leans on: fetch-and-store (SwapStat)
// and compare-and-swap (CompareSwapStat, stat.go) drive the MCS lock (§IV-D),
// and fetch-add/and/or/xor implement CAF's atomic intrinsics (Table II).
//
// All AMOs are round trips: the caller's clock advances by the full remote
// completion time, and the update is immediately globally visible (OpenSHMEM
// AMO semantics), so nothing is added to the pending (Quiet) set.

// amo is every AMO but compare-and-swap, named name: op with operand v on the
// word at element index idx of sym, and whether it was applied.
func (pe *PE) amo(name string, target int, sym Sym, idx int, op pgas.AtomicOp, v int64) (int64, bool) {
	pe.checkTarget(target)
	off := pe.wordOff(name, sym, idx)
	old, ok := pe.p.RMW64Stat(target, off, op, uint64(v), pe.amoPrice(target))
	return int64(old), ok
}

// amoPrice is an AMO's cost: a full round trip, charged inline.
func (pe *PE) amoPrice(target int) pgas.Price {
	return pgas.Price{Inject: pe.world.prof.AtomicRTTNs(pe.intra(target), pe.pairs())}
}

// wordOff is the absolute offset of the 64-bit word at element index idx of
// sym, which op uses: every atomic, wait and signal word is addressed
// here, all 8 bytes of it bounds-checked and the handle checked by the
// sanitizer.
func (pe *PE) wordOff(op string, sym Sym, idx int) int64 {
	if idx < 0 || int64(idx) >= sym.Size/8 {
		sym.badWord(idx)
	}
	pe.p.CheckHandle(op, sym.Off, sym.Size)
	return sym.Off + int64(idx)*8
}

// badWord is wordOff's panic, kept out of line: off the path of every word op.
//
//go:noinline
func (sym Sym) badWord(idx int) {
	panic(fmt.Sprintf("shmem: word %d (bytes [%d,%d)) out of range of %d-byte symmetric object", idx, int64(idx)*8, int64(idx)*8+8, sym.Size))
}

// FetchAdd atomically adds v to the word and returns the previous value
// (shmem_longlong_fadd).
func (pe *PE) FetchAdd(target int, sym Sym, idx int, v int64) int64 {
	old, _ := pe.amo("fetch_add", target, sym, idx, pgas.OpAdd, v)
	return old
}

// FetchAnd atomically ANDs v into the word and returns the previous value.
func (pe *PE) FetchAnd(target int, sym Sym, idx int, v int64) int64 {
	old, _ := pe.amo("fetch_and", target, sym, idx, pgas.OpAnd, v)
	return old
}

// FetchOr atomically ORs v into the word and returns the previous value.
func (pe *PE) FetchOr(target int, sym Sym, idx int, v int64) int64 {
	old, _ := pe.amo("fetch_or", target, sym, idx, pgas.OpOr, v)
	return old
}

// FetchXor atomically XORs v into the word and returns the previous value.
func (pe *PE) FetchXor(target int, sym Sym, idx int, v int64) int64 {
	old, _ := pe.amo("fetch_xor", target, sym, idx, pgas.OpXor, v)
	return old
}
