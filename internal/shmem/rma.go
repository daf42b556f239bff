package shmem

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// PutMem copies data into the symmetric object sym (at byte offset off
// within it) on the target PE — shmem_putmem. It returns after *local*
// completion: the source buffer may be reused, but remote visibility requires
// Quiet (or a synchronising operation). This is precisely the semantic gap
// the paper's §IV-B discusses: CAF's ordering guarantees require the runtime
// to insert quiet operations around OpenSHMEM puts.
func (pe *PE) PutMem(target int, sym Sym, off int64, data []byte) {
	pe.issue(&pgas.RMA{Target: target, Off: off, Local: data}, sym, false, nil)
}

// GetMem copies len(dst) bytes from the symmetric object on the target PE
// into dst — shmem_getmem. Blocking: returns once the data is locally usable.
func (pe *PE) GetMem(target int, sym Sym, off int64, dst []byte) {
	pe.issue(&pgas.RMA{Get: true, Target: target, Off: off, Local: dst}, sym, false, nil)
}

// Put writes typed elements at element index idx of the symmetric object —
// the typed shmem_put family. vals goes to PutMem as the bytes it already is.
func Put[T pgas.Elem](pe *PE, target int, sym Sym, idx int, vals []T) {
	pe.PutMem(target, sym, int64(idx)*int64(pgas.SizeOf[T]()), pgas.Bytes(vals))
}

// P writes a single element (shmem_p).
func P[T pgas.Elem](pe *PE, target int, sym Sym, idx int, v T) {
	one := [1]T{v}
	Put(pe, target, sym, idx, one[:])
}

// G reads a single element (shmem_g).
func G[T pgas.Elem](pe *PE, target int, sym Sym, idx int) T {
	var one [1]T
	pe.GetMem(target, sym, int64(idx)*int64(pgas.SizeOf[T]()), pgas.Bytes(one[:]))
	return one[0]
}

// PutMemV is the vectored multi-run put: run i is runBytes bytes, taken
// densely from src, landing at byte offset offs[i] within sym on the target.
// The modelled cost — per-run injection, link penalties, sanitizer
// accounting, and each run's visibility time — is computed exactly as
// len(offs) successive PutMem calls would compute it; only the host-side
// data movement is batched, with a single target-lock acquisition. This is
// what makes the naive strided algorithm's "one putmem per contiguous run"
// translation cheap to execute without changing what it models.
func (pe *PE) PutMemV(target int, sym Sym, offs []int64, runBytes int, src []byte) {
	pe.issue(&pgas.RMA{Shape: pgas.Runs, Target: target, Local: src, Offs: offs, Unit: runBytes}, sym, false, nil)
}

// PutSignal writes data into sym at byte offset off on the target and then
// sets the 64-bit signal word at element index sigIdx of sig to sigVal, in
// that order (shmem_put_signal, OpenSHMEM 1.5 flavour). The two writes
// travel as one injection; the substrate applies them in issue order per
// target, so an observer that has seen the signal (WaitUntil64) is
// guaranteed to see the data — completion is signal-mediated, and no Quiet
// is needed on the critical path. This is what lets the collective trees
// complete one 8-byte flag without flushing all outstanding traffic.
//
// Because the consumer synchronises through the signal word (whose write
// timestamp WaitUntil64 merges), the data put is not tracked as an
// outstanding sanitizer put: a reader gated on the signal is ordered after
// it by construction, and a reader that ignores the signal is outside the
// primitive's contract. The initiator's own Quiet still waits for delivery
// (the blocking horizon carries the visibility time). The nonblocking form is
// PE.RMA's.
//
// data may be nil/empty to send just the signal.
func (pe *PE) PutSignal(target int, sym Sym, off int64, data []byte, sig Sym, sigIdx int, sigVal int64) {
	pe.checkTarget(target)
	sigOff := pe.wordOff("put_signal", sig, sigIdx)
	pe.issue(&pgas.RMA{Shape: pgas.Signal, Target: target, Off: off, Local: data, SigOff: sigOff, SigVal: uint64(sigVal)}, sym, false, nil)
}

func (pe *PE) checkTarget(target int) {
	if target < 0 || target >= pe.NumPEs() {
		pe.badTarget(target)
	}
}

// badTarget is checkTarget's panic, kept out of line so that checkTarget
// inlines into every entry point.
//
//go:noinline
func (pe *PE) badTarget(target int) {
	panic(fmt.Sprintf("shmem: PE %d out of range [0,%d)", target, pe.NumPEs()))
}
