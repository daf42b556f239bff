package caf

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
	off := img.tr.Malloc(8)
	markRuntimeAlloc(img.tr, off, 8) // no deallocator exists; not a leak
	img.storeLocalWord(off, 0)
	img.tr.Barrier()
	return &AtomicVar{img: img, off: off}
}

func (a *AtomicVar) amo(j int) int {
	a.img.checkImage(j)
	a.img.Stats.Atomics++
	return j - 1
}

// Define atomically writes v to the instance at image j (atomic_define).
func (a *AtomicVar) Define(j int, v int64) {
	a.img.tr.Swap64(a.amo(j), a.off, v)
}

// Ref atomically reads the instance at image j (atomic_ref).
func (a *AtomicVar) Ref(j int) int64 {
	return a.img.tr.FetchAdd64(a.amo(j), a.off, 0)
}

// CompareSwap is atomic_cas: store new iff the value equals old; the
// previous value is returned.
func (a *AtomicVar) CompareSwap(j int, old, new int64) int64 {
	return a.img.tr.CompareSwap64(a.amo(j), a.off, old, new)
}

// FetchAdd is atomic_fetch_add.
func (a *AtomicVar) FetchAdd(j int, v int64) int64 {
	return a.img.tr.FetchAdd64(a.amo(j), a.off, v)
}

// Add is atomic_add.
func (a *AtomicVar) Add(j int, v int64) { a.FetchAdd(j, v) }

// FetchAnd is atomic_fetch_and.
func (a *AtomicVar) FetchAnd(j int, v int64) int64 {
	return a.img.tr.FetchAnd64(a.amo(j), a.off, v)
}

// And is atomic_and.
func (a *AtomicVar) And(j int, v int64) { a.FetchAnd(j, v) }

// FetchOr is atomic_fetch_or.
func (a *AtomicVar) FetchOr(j int, v int64) int64 {
	return a.img.tr.FetchOr64(a.amo(j), a.off, v)
}

// Or is atomic_or.
func (a *AtomicVar) Or(j int, v int64) { a.FetchOr(j, v) }

// FetchXor is atomic_fetch_xor.
func (a *AtomicVar) FetchXor(j int, v int64) int64 {
	return a.img.tr.FetchXor64(a.amo(j), a.off, v)
}

// Xor is atomic_xor.
func (a *AtomicVar) Xor(j int, v int64) { a.FetchXor(j, v) }

// Swap atomically stores v and returns the previous value (fetch-and-store —
// not a standard CAF intrinsic, but the OpenSHMEM primitive the lock runtime
// uses, exposed for completeness).
func (a *AtomicVar) Swap(j int, v int64) int64 {
	return a.img.tr.Swap64(a.amo(j), a.off, v)
}
