package shmem

import (
	"fmt"
	"sync"

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

const (
	heapAlign = 64
	// heapBase reserves the low partition addresses so that offset 0 is never
	// a valid allocation: packed remote pointers use offset 0 as nil.
	heapBase = int64(heapAlign)
)

// heap is the symmetric-heap allocator. Because symmetric allocations have
// identical offsets on every PE, there is exactly one allocator per world and
// Malloc is collective: every PE must call it with the same size, and every
// PE receives the same handle.
//
// A collective call is one rendezvous (barrierStat): whoever releases it runs
// the call's release action once, while every PE is asleep in it, and leaves
// the outcome in cur and curErr for each PE to read as it wakes — the next
// call cannot release, and overwrite them, before every PE has entered it.
type heap struct {
	mu   sync.Mutex
	free []span // sorted by offset, coalesced
	live map[int64]int64
	brk  int64 // high-water mark

	cur    Sym
	curErr error
}

type span struct{ off, size int64 }

func newHeap() *heap {
	return &heap{live: map[int64]int64{}, brk: heapBase}
}

func align(n int64) int64 {
	return (n + heapAlign - 1) &^ (heapAlign - 1)
}

// alloc reserves size bytes and returns the offset (single-PE view).
func (h *heap) alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("shmem: allocation size must be positive, got %d", size)
	}
	sz := align(size)
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, s := range h.free {
		if s.size >= sz {
			off := s.off
			if s.size == sz {
				h.free = append(h.free[:i], h.free[i+1:]...)
			} else {
				h.free[i] = span{s.off + sz, s.size - sz}
			}
			h.live[off] = sz
			return off, nil
		}
	}
	off := h.brk
	if off+sz > pgas.MaxSegmentBytes {
		return 0, fmt.Errorf("shmem: symmetric heap exhausted (%d bytes requested)", size)
	}
	h.brk += sz
	h.live[off] = sz
	return off, nil
}

// release returns an allocation to the free list, coalescing neighbours.
func (h *heap) release(off int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	sz, ok := h.live[off]
	if !ok {
		return fmt.Errorf("shmem: free of unallocated offset %d", off)
	}
	delete(h.live, off)
	// Insert sorted.
	i := 0
	for i < len(h.free) && h.free[i].off < off {
		i++
	}
	h.free = append(h.free, span{})
	copy(h.free[i+1:], h.free[i:])
	h.free[i] = span{off, sz}
	// Coalesce with successor, then predecessor.
	if i+1 < len(h.free) && h.free[i].off+h.free[i].size == h.free[i+1].off {
		h.free[i].size += h.free[i+1].size
		h.free = append(h.free[:i+1], h.free[i+2:]...)
	}
	if i > 0 && h.free[i-1].off+h.free[i-1].size == h.free[i].off {
		h.free[i-1].size += h.free[i].size
		h.free = append(h.free[:i], h.free[i+1:]...)
	}
	// Shrink the break if the top span touches it.
	if n := len(h.free); n > 0 && h.free[n-1].off+h.free[n-1].size == h.brk {
		h.brk = h.free[n-1].off
		h.free = h.free[:n-1]
	}
	return nil
}

// liveBytes reports the total currently-allocated size (for tests).
func (h *heap) liveBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var t int64
	for _, s := range h.live {
		t += s
	}
	return t
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
func (pe *PE) mallocInner(size int64) (sym Sym, allocErr, faultErr error) {
	w := pe.world
	pe.p.RecordCollective("Malloc", size)
	faultErr = pe.barrierStat(mallocRelease, size, 2)
	return w.heap.cur, w.heap.curErr, faultErr
}

// mallocRelease is Malloc's release action (ctx is the World). It touches the
// region on every alive PE so it is logically established before anyone can
// write there. Touch carries the full write bookkeeping (timestamps, wakeups)
// of a one-byte store but lets the partition stay small until something is
// actually written. The stamp is the clock each PE held when it touched its
// own region: a barrier and the next one's quiet behind the release.
func mallocRelease(ctx any, size int64, rel float64) {
	w := ctx.(*World)
	h := w.heap
	off, err := h.alloc(size)
	h.cur, h.curErr = Sym{Off: off, Size: size}, err
	if err != nil {
		return
	}
	w.pw.NoteAlloc(off, size)
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
	w := pe.world
	pe.p.RecordCollective("Free", sym.Off)
	faultErr := pe.barrierStat(freeRelease, sym.Off, 1)
	if err := w.heap.curErr; err != nil {
		panic(err)
	}
	return faultErr
}

// freeRelease is Free's release action.
func freeRelease(ctx any, off int64, _ float64) {
	w := ctx.(*World)
	if w.heap.curErr = w.heap.release(off); w.heap.curErr == nil {
		w.pw.NoteFree(off)
	}
}
