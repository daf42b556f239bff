package shmem

import (
	"testing"
	"testing/quick"
)

func TestHeapAllocAligned(t *testing.T) {
	h := newHeap()
	off, err := h.alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if off%heapAlign != 0 {
		t.Fatalf("offset %d not %d-aligned", off, heapAlign)
	}
	if off == 0 {
		t.Fatal("offset 0 must never be allocated (reserved as nil)")
	}
}

func TestHeapRejectsBadSizes(t *testing.T) {
	h := newHeap()
	if _, err := h.alloc(0); err == nil {
		t.Fatal("size 0 should fail")
	}
	if _, err := h.alloc(-5); err == nil {
		t.Fatal("negative size should fail")
	}
}

func TestHeapDistinctAllocationsDisjoint(t *testing.T) {
	h := newHeap()
	type blk struct{ off, size int64 }
	var blocks []blk
	sizes := []int64{1, 64, 65, 128, 4096, 7}
	for _, s := range sizes {
		off, err := h.alloc(s)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk{off, align(s)})
	}
	for i := range blocks {
		for j := i + 1; j < len(blocks); j++ {
			a, b := blocks[i], blocks[j]
			if a.off < b.off+b.size && b.off < a.off+a.size {
				t.Fatalf("blocks %d and %d overlap: %+v %+v", i, j, a, b)
			}
		}
	}
}

func TestHeapFreeAndReuse(t *testing.T) {
	h := newHeap()
	a, _ := h.alloc(256)
	b, _ := h.alloc(256)
	if err := h.release(a); err != nil {
		t.Fatal(err)
	}
	c, _ := h.alloc(128)
	if c != a {
		t.Fatalf("freed space not reused: got %d want %d", c, a)
	}
	_ = b
}

func TestHeapDoubleFree(t *testing.T) {
	h := newHeap()
	a, _ := h.alloc(64)
	if err := h.release(a); err != nil {
		t.Fatal(err)
	}
	if err := h.release(a); err == nil {
		t.Fatal("double free should fail")
	}
	if err := h.release(12345); err == nil {
		t.Fatal("free of unallocated offset should fail")
	}
}

func TestHeapCoalescingShrinksBreak(t *testing.T) {
	h := newHeap()
	a, _ := h.alloc(64)
	b, _ := h.alloc(64)
	c, _ := h.alloc(64)
	brk := h.brk
	// Free out of order; full coalescing should pull the break back down.
	_ = h.release(b)
	_ = h.release(a)
	_ = h.release(c)
	if h.brk >= brk {
		t.Fatalf("break did not shrink: %d -> %d", brk, h.brk)
	}
	if h.brk != heapBase {
		t.Fatalf("fully-freed heap should return to base, brk=%d", h.brk)
	}
	if len(h.free) != 0 {
		t.Fatalf("free list should be empty, got %v", h.free)
	}
}

// Property: any sequence of allocs and frees keeps allocations disjoint,
// aligned, and never double-books live bytes.
func TestHeapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h := newHeap()
		type blk struct{ off, size int64 }
		var live []blk
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				size := int64(op%2048) + 1
				off, err := h.alloc(size)
				if err != nil {
					return false
				}
				if off%heapAlign != 0 || off < heapBase {
					return false
				}
				nb := blk{off, align(size)}
				for _, l := range live {
					if l.off < nb.off+nb.size && nb.off < l.off+l.size {
						return false // overlap with live block
					}
				}
				live = append(live, nb)
			} else {
				i := int(op) % len(live)
				if h.release(live[i].off) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		var want int64
		for _, l := range live {
			want += l.size
		}
		return h.liveBytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSymAtBounds(t *testing.T) {
	s := Sym{Off: 100, Size: 8}
	if s.At(0) != 100 || s.At(7) != 107 {
		t.Fatal("At arithmetic wrong")
	}
	for _, bad := range []int64{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("At(%d) should panic", bad)
				}
			}()
			s.At(bad)
		}()
	}
}
