package shmem

import (
	"fmt"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// Sym is a handle to a symmetric allocation: the same offset within every
// PE's partition, which is what makes one-sided addressing possible — a PE
// can name remote memory using its own local layout (paper §IV-A).
type Sym struct {
	Off  int64
	Size int64
}

// At returns the absolute partition offset of byte index i within the
// allocation, bounds-checked.
func (s Sym) At(i int64) int64 {
	if i < 0 || i >= s.Size {
		panic(fmt.Sprintf("shmem: offset %d out of range of %d-byte symmetric object", i, s.Size))
	}
	return s.Off + i
}

// Malloc is the collective symmetric allocator (shmalloc): every PE calls it
// with the same size and receives the identical handle. Like shmalloc it
// implies a barrier, so the allocation is usable by all PEs on return. If
// images failed or stopped during the rendezvous the fault panics (the
// non-STAT semantics); MallocStat returns it instead.
func (pe *PE) Malloc(size int64) Sym {
	sym, allocErr, faultErr := pe.mallocInner(size)
	if allocErr != nil {
		panic(allocErr)
	}
	if faultErr != nil {
		panic(faultErr)
	}
	return sym
}

// mallocInner is the shared allocation protocol behind Malloc and MallocStat:
// one rendezvous whose release action allocates, then the virtual time of the
// two barriers that used to publish the handle and close the call. Fault
// conditions observed at the rendezvous are collected, not raised, so
// survivors complete the allocation together either way.
func (pe *PE) mallocInner(size int64) (Sym, error, error) {
	off, allocErr, faultErr := pe.barrierStat(pgas.Call{Op: "Malloc", Arg: size, Release: mallocRelease, On: pe.world}, 2)
	return Sym{Off: off, Size: size}, allocErr, faultErr
}

// mallocRelease is Malloc's release action (ctx is the World): it allocates
// from the world's symmetric heap (pgas.World.Alloc), and the rendezvous hands
// every PE the offset. It touches the region on every alive PE so it is
// logically established before anyone can write there. Touch carries the
// full write bookkeeping (timestamps, wakeups) of a one-byte store but lets
// the partition stay small until something is actually written. The stamp is
// the clock each PE held when it touched its own region: a barrier and the
// next one's quiet behind the release.
func mallocRelease(ctx any, size int64, rel float64) (int64, error) {
	w := ctx.(*World)
	off, err := w.pw.Alloc(size)
	if err != nil {
		return 0, err
	}
	var at fabric.Clock
	cost := w.barrierNs()
	at.MergeAtLeast(rel)
	at.Advance(cost)
	at.Advance(w.prof.OverheadNs)
	at.Advance(cost)
	for id := range w.pw.NumPEs() {
		if w.pw.Alive(id) {
			w.pw.Touch(id, off+size-1, at.Now())
		}
	}
	return off, nil
}

// Free is the collective symmetric deallocator (shfree).
func (pe *PE) Free(sym Sym) {
	if err := pe.FreeStat(sym); err != nil {
		panic(err)
	}
}

// FreeStat is Free with fault status, mirroring MallocStat: one rendezvous
// whose release action returns the space, and the closing barrier's virtual
// time. Freeing what is not allocated panics on every PE.
func (pe *PE) FreeStat(sym Sym) error {
	_, err, faultErr := pe.barrierStat(pgas.Call{Op: "Free", Arg: sym.Off, Release: freeRelease, On: pe.world}, 1)
	if err != nil {
		panic(err)
	}
	return faultErr
}

// freeRelease is Free's release action: the heap clears the freed range on
// every alive PE (pgas.World.Free).
func freeRelease(ctx any, off int64, _ float64) (int64, error) {
	return 0, ctx.(*World).pw.Free(off)
}
