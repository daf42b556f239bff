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
	pe.def.issue(&pgas.RMA{Target: target, Off: off, Local: data}, sym, blocking, nil)
}

// GetMem copies len(dst) bytes from the symmetric object on the target PE
// into dst — shmem_getmem. Blocking: returns once the data is locally usable.
func (pe *PE) GetMem(target int, sym Sym, off int64, dst []byte) {
	pe.def.issue(&pgas.RMA{Get: true, Target: target, Off: off, Local: dst}, sym, blocking, nil)
}

// Put writes typed elements at element index idx of the symmetric object —
// the typed shmem_put family. vals goes to PutMem as the bytes it already is.
func Put[T pgas.Elem](pe *PE, target int, sym Sym, idx int, vals []T) {
	pe.PutMem(target, sym, int64(idx)*int64(pgas.SizeOf[T]()), pgas.Bytes(vals))
}

// Get reads n typed elements starting at element index idx of the symmetric
// object — the typed shmem_get family.
func Get[T pgas.Elem](pe *PE, target int, sym Sym, idx, n int) []T {
	out := make([]T, n)
	pe.GetMem(target, sym, int64(idx)*int64(pgas.SizeOf[T]()), pgas.Bytes(out))
	return out
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

// IPut performs the 1-D strided put — shmem_iput. dstIdx/srcIdx are element
// indices; dstStride/srcStride are element strides (>= 1); nelems elements of
// src (itself a local Go slice) are transferred.
//
// The *cost* of IPut depends on the modelled library: with StridedHardware
// (Cray SHMEM over DMAPP) one descriptor covers the whole vector; with
// StridedLoop (MVAPICH2-X) the library issues one putmem per element —
// paper §V-B2's central observation.
func IPut[T pgas.Elem](pe *PE, target int, sym Sym, dstIdx, dstStride int, src []T, srcIdx, srcStride, nelems int) {
	pe.checkTarget(target)
	if nelems == 0 {
		return
	}
	if dstStride < 1 || srcStride < 1 {
		panic("shmem: iput strides must be >= 1")
	}
	es := pgas.SizeOf[T]()
	// One descriptor (one vectored write, one target-lock acquisition) takes
	// the elements densely: a unit-stride source already is that, as the
	// bytes of src itself; a strided one is gathered into the PE's staging
	// buffer first.
	var buf []byte
	if srcStride == 1 {
		buf = pgas.Bytes(src[srcIdx : srcIdx+nelems])
	} else {
		buf = pe.staging(nelems * es)
		for k := 0; k < nelems; k++ {
			pgas.Store(buf[k*es:], src[srcIdx+k*srcStride])
		}
	}
	pe.def.issue(&pgas.RMA{Shape: pgas.Strided, Target: target, Off: int64(dstIdx) * int64(es), Local: buf, Unit: es, Stride: int64(dstStride) * int64(es)}, sym, blocking, nil)
}

// IGet performs the 1-D strided get — shmem_iget.
func IGet[T pgas.Elem](pe *PE, target int, sym Sym, srcIdx, srcStride int, dst []T, dstIdx, dstStride, nelems int) {
	pe.checkTarget(target)
	if nelems == 0 {
		return
	}
	if dstStride < 1 || srcStride < 1 {
		panic("shmem: iget strides must be >= 1")
	}
	es := pgas.SizeOf[T]()
	// One vectored read gathers the elements densely: straight into dst's
	// own bytes when dst is unit-stride, else into the PE's staging buffer
	// and from there to the caller's strided destination. The cost model is
	// IPut's plus the request round trip of a get.
	var raw []byte
	if dstStride == 1 {
		raw = pgas.Bytes(dst[dstIdx : dstIdx+nelems])
	} else {
		raw = pe.staging(nelems * es)
	}
	pe.def.issue(&pgas.RMA{Get: true, Shape: pgas.Strided, Target: target, Off: int64(srcIdx) * int64(es), Local: raw, Unit: es, Stride: int64(srcStride) * int64(es)}, sym, blocking, nil)
	if dstStride != 1 {
		for k := 0; k < nelems; k++ {
			dst[dstIdx+k*dstStride] = pgas.Load[T](raw[k*es:])
		}
	}
}

// staging returns the PE's n-byte staging buffer, which makes a strided local
// operand of IPut/IGet dense for one vectored transfer. It is valid until the
// PE's next strided call and lives no longer than the PE.
func (pe *PE) staging(n int) []byte {
	if cap(pe.stage) < n {
		pe.stage = make([]byte, n)
	}
	return pe.stage[:n]
}

// IPutMem is the byte-level 1-D strided put used by layered runtimes: nelems
// elements of elemSize bytes each are taken densely from src and scattered to
// the target at byte stride dstStrideBytes starting at absolute byte offset
// off within sym. Costs follow the library's strided mode exactly like IPut.
func (pe *PE) IPutMem(target int, sym Sym, off, dstStrideBytes int64, elemSize int, src []byte) {
	pe.def.issue(&pgas.RMA{Shape: pgas.Strided, Target: target, Off: off, Local: src, Unit: elemSize, Stride: dstStrideBytes}, sym, locality, nil)
}

// IGetMem is the byte-level 1-D strided get: nelems elements are gathered
// from the target at byte stride srcStrideBytes into dst densely.
func (pe *PE) IGetMem(target int, sym Sym, off, srcStrideBytes int64, elemSize int, dst []byte) {
	pe.def.issue(&pgas.RMA{Get: true, Shape: pgas.Strided, Target: target, Off: off, Local: dst, Unit: elemSize, Stride: srcStrideBytes}, sym, locality, nil)
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
	pe.def.issue(&pgas.RMA{Shape: pgas.Runs, Target: target, Local: src, Offs: offs, Unit: runBytes}, sym, blocking, nil)
}

// GetMemV is the vectored multi-run get: run i is runBytes bytes read from
// byte offset offs[i] within sym on the target into dst densely. Costs are
// identical to len(offs) successive GetMem calls.
func (pe *PE) GetMemV(target int, sym Sym, offs []int64, runBytes int, dst []byte) {
	pe.def.issue(&pgas.RMA{Get: true, Shape: pgas.Runs, Target: target, Local: dst, Offs: offs, Unit: runBytes}, sym, blocking, nil)
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
// (the blocking horizon carries the visibility time).
//
// data may be nil/empty to send just the signal.
func (pe *PE) PutSignal(target int, sym Sym, off int64, data []byte, sig Sym, sigIdx int, sigVal int64) {
	pe.def.putSignal(blocking, target, sym, off, data, sig, sigIdx, sigVal)
}

// PutSignalNBI is the nonblocking flavour of PutSignal (shmem_put_signal_nbi,
// OpenSHMEM 1.5): data plus the 8-byte signal word travel as one nonblocking
// injection on the default context's stream toward target. Because streams
// serialise per destination on the NIC and the substrate applies writes in
// issue order per target, the signal's completion is at or after every
// previously-issued transfer to the same target — so a consumer that has seen
// the signal (SignalWaitUntil) sees all data the producer streamed to it
// beforehand, including earlier PutMemNBI/PutMemVNBI payloads on the same
// context. That makes it the fused "data + doorbell" of the barrier-free
// ghost exchange: no Quiet, no barrier on the critical path.
//
// As with PutSignal, the data is not tracked as an outstanding sanitizer put
// (completion is signal-mediated); the initiator's own completion point is
// its next Quiet/QuietTarget. data may be nil/empty to send just the signal.
func (pe *PE) PutSignalNBI(target int, sym Sym, off int64, data []byte, sig Sym, sigIdx int, sigVal int64) {
	pe.def.PutSignalNBI(target, sym, off, data, sig, sigIdx, sigVal)
}

// putSignal is the signal puts of a context, blocking or nonblocking: it
// checks the signal word, which has a symmetric object of its own.
func (c *Ctx) putSignal(m mode, target int, sym Sym, off int64, data []byte, sig Sym, sigIdx int, sigVal int64) {
	c.pe.checkTarget(target)
	sigOff := c.pe.wordOff("put_signal", sig, sigIdx)
	c.issue(&pgas.RMA{Shape: pgas.Signal, Target: target, Off: off, Local: data, SigOff: sigOff, SigVal: uint64(sigVal)}, sym, m, nil)
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
