package caf

import "cafshmem/internal/pgas"

// AtomicVar is a scalar coarray of ATOMIC_INT_KIND: the object CAF's atomic
// subroutines operate on. Each image hosts one instance; all operations may
// target any image's instance. Per Table II these map one-to-one onto
// OpenSHMEM remote atomics (shmem_swap, shmem_cswap, shmem_fadd,
// shmem_and/or/xor).
type AtomicVar struct {
	img *Image
	off int64
}

// NewAtomicVar collectively creates an atomic variable coarray,
// zero-initialised.
func NewAtomicVar(img *Image) *AtomicVar {
	off := img.malloc(8, true) // no deallocator exists; not a leak
	img.storeLocalWord(off, 0)
	img.barrier()
	return &AtomicVar{img: img, off: off}
}

func (a *AtomicVar) amo(op pgas.AtomicOp, j int, v, w int64) int64 {
	a.img.checkImage(j)
	return a.img.amo(op, j-1, a.off, v, w)
}

// Define atomically writes v to the instance at image j (atomic_define).
func (a *AtomicVar) Define(j int, v int64) {
	a.amo(pgas.OpSwap, j, v, 0)
}

// Ref atomically reads the instance at image j (atomic_ref).
func (a *AtomicVar) Ref(j int) int64 {
	return a.amo(pgas.OpAdd, j, 0, 0)
}

// CompareSwap is atomic_cas: store new iff the value equals old; the
// previous value is returned.
func (a *AtomicVar) CompareSwap(j int, old, new int64) int64 {
	return a.amo(opCAS, j, old, new)
}

// FetchAdd is atomic_fetch_add.
func (a *AtomicVar) FetchAdd(j int, v int64) int64 {
	return a.amo(pgas.OpAdd, j, v, 0)
}

// Add is atomic_add.
func (a *AtomicVar) Add(j int, v int64) { a.FetchAdd(j, v) }

// FetchAnd is atomic_fetch_and.
func (a *AtomicVar) FetchAnd(j int, v int64) int64 {
	return a.amo(pgas.OpAnd, j, v, 0)
}

// And is atomic_and.
func (a *AtomicVar) And(j int, v int64) { a.FetchAnd(j, v) }

// FetchOr is atomic_fetch_or.
func (a *AtomicVar) FetchOr(j int, v int64) int64 {
	return a.amo(pgas.OpOr, j, v, 0)
}

// Or is atomic_or.
func (a *AtomicVar) Or(j int, v int64) { a.FetchOr(j, v) }

// FetchXor is atomic_fetch_xor.
func (a *AtomicVar) FetchXor(j int, v int64) int64 {
	return a.amo(pgas.OpXor, j, v, 0)
}

// Xor is atomic_xor.
func (a *AtomicVar) Xor(j int, v int64) { a.FetchXor(j, v) }

// Swap atomically stores v and returns the previous value (fetch-and-store —
// not a standard CAF intrinsic, but the OpenSHMEM primitive the lock runtime
// uses, exposed for completeness).
func (a *AtomicVar) Swap(j int, v int64) int64 {
	return a.amo(pgas.OpSwap, j, v, 0)
}
