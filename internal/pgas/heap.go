package pgas

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// heapAlign is the alignment of every symmetric allocation. Offsets below it
// are never handed out, so offset 0 is never a valid allocation: packed
// remote pointers use it as nil.
const heapAlign = 64

// heap is the world's one symmetric heap (paper §IV-A, Table II's
// shmalloc/shfree). Symmetric allocations have identical offsets on every PE,
// so one allocator per world serves every library over it: each library runs
// Alloc and Free from the release action of its own collective rendezvous,
// while every PE is asleep in it, or calls Alloc for an area it keeps for the
// whole job. The live set is also what the sanitizer checks handles against
// and reports leaks from.
type heap struct {
	mu   sync.Mutex
	free []span       // sorted by offset, coalesced
	live []allocation // sorted by offset
	brk  int64        // high-water mark
}

type span struct{ off, size int64 }

// allocation is one live allocation: its offset, the size its caller asked
// for (the handle's extent, not the aligned reservation) and whether the
// runtime owns it for the whole job (MarkInternal), which is no leak.
type allocation struct {
	off, size int64
	internal  bool
}

func alignUp(n int64) int64 { return (n + heapAlign - 1) &^ (heapAlign - 1) }

// find returns the index of the live allocation at off, or where it would go.
func (h *heap) find(off int64) (int, bool) {
	return slices.BinarySearchFunc(h.live, off, func(a allocation, off int64) int { return cmp.Compare(a.off, off) })
}

// Alloc reserves size bytes of the symmetric heap, first fit over the freed
// spans, else at the break, and returns their offset, the same on every PE.
func (w *World) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("pgas: allocation size must be positive, got %d", size)
	}
	sz := alignUp(size)
	h := &w.heap
	h.mu.Lock()
	defer h.mu.Unlock()
	off := int64(-1)
	for i, s := range h.free {
		if s.size >= sz {
			off = s.off
			if s.size == sz {
				h.free = slices.Delete(h.free, i, i+1)
			} else {
				h.free[i] = span{s.off + sz, s.size - sz}
			}
			break
		}
	}
	if off < 0 {
		off = max(h.brk, heapAlign)
		if off+sz > MaxSegmentBytes {
			return 0, fmt.Errorf("pgas: symmetric heap exhausted (%d bytes requested)", size)
		}
		h.brk = off + sz
	}
	if h.live == nil {
		h.live = make([]allocation, 0, 8)
	}
	i, _ := h.find(off)
	h.live = slices.Insert(h.live, i, allocation{off: off, size: size})
	return off, nil
}

// Free returns the allocation at off to the heap and makes its bytes read as
// zero on every alive PE, so whatever is allocated there next starts from
// zero as fresh memory does. Only materialised pages are cleared, and the
// timestamp index is left as it is. A library calls it from a release action,
// while every PE is asleep.
func (w *World) Free(off int64) error {
	h := &w.heap
	h.mu.Lock()
	i, ok := h.find(off)
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("pgas: free of unallocated offset %d", off)
	}
	sz := alignUp(h.live[i].size)
	h.live = slices.Delete(h.live, i, i+1)
	// Insert sorted, coalesce with successor, then predecessor.
	j, _ := slices.BinarySearchFunc(h.free, off, func(s span, off int64) int { return cmp.Compare(s.off, off) })
	h.free = slices.Insert(h.free, j, span{off, sz})
	if j+1 < len(h.free) && h.free[j].off+h.free[j].size == h.free[j+1].off {
		h.free[j].size += h.free[j+1].size
		h.free = slices.Delete(h.free, j+1, j+2)
	}
	if j > 0 && h.free[j-1].off+h.free[j-1].size == h.free[j].off {
		h.free[j-1].size += h.free[j].size
		h.free = slices.Delete(h.free, j, j+1)
	}
	// Shrink the break if the top span touches it.
	if n := len(h.free); n > 0 && h.free[n-1].off+h.free[n-1].size == h.brk {
		h.brk = h.free[n-1].off
		h.free = h.free[:n-1]
	}
	h.mu.Unlock()
	for id := range w.pes {
		if w.Alive(id) {
			p := &w.pes[id]
			p.mu.Lock()
			p.seg.clearRange(off, sz)
			p.mu.Unlock()
		}
	}
	return nil
}

// MarkInternal exempts the allocation at off from leak reporting: a library or
// a layered runtime (the CAF transport) calls it for allocations that live for
// the whole job by design.
func (w *World) MarkInternal(off int64) {
	h := &w.heap
	h.mu.Lock()
	if i, ok := h.find(off); ok {
		h.live[i].internal = true
	}
	h.mu.Unlock()
}

// holds reports whether [off, off+size) lies inside one live allocation.
func (h *heap) holds(off, size int64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	i, ok := h.find(off)
	if !ok {
		i-- // the allocation below off, if any
	}
	return i >= 0 && off+size <= h.live[i].off+h.live[i].size
}
