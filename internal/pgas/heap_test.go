package pgas

import (
	"bytes"
	"testing"
	"testing/quick"

	"cafshmem/internal/fabric"
)

func TestHeapAllocAligned(t *testing.T) {
	w := testWorld(t, 1)
	off, err := w.Alloc(10)
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
	w := testWorld(t, 1)
	for _, size := range []int64{0, -5, MaxSegmentBytes} {
		if _, err := w.Alloc(size); err == nil {
			t.Fatalf("size %d should fail", size)
		}
	}
}

func TestHeapDistinctAllocationsDisjoint(t *testing.T) {
	w := testWorld(t, 1)
	type blk struct{ off, size int64 }
	var blocks []blk
	for _, s := range []int64{1, 64, 65, 128, 4096, 7} {
		off, err := w.Alloc(s)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, blk{off, alignUp(s)})
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
	w := testWorld(t, 1)
	a, _ := w.Alloc(256)
	_, _ = w.Alloc(256)
	if err := w.Free(a); err != nil {
		t.Fatal(err)
	}
	if c, _ := w.Alloc(128); c != a {
		t.Fatalf("freed space not reused: got %d want %d", c, a)
	}
}

func TestHeapDoubleFree(t *testing.T) {
	w := testWorld(t, 1)
	a, _ := w.Alloc(64)
	if err := w.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := w.Free(a); err == nil {
		t.Fatal("double free should fail")
	}
	if err := w.Free(12345); err == nil {
		t.Fatal("free of unallocated offset should fail")
	}
}

func TestHeapCoalescingShrinksBreak(t *testing.T) {
	w := testWorld(t, 1)
	h := &w.heap
	a, _ := w.Alloc(64)
	b, _ := w.Alloc(64)
	c, _ := w.Alloc(64)
	brk := h.brk
	// Free out of order; full coalescing should pull the break back down.
	_ = w.Free(b)
	_ = w.Free(a)
	_ = w.Free(c)
	if h.brk >= brk {
		t.Fatalf("break did not shrink: %d -> %d", brk, h.brk)
	}
	if h.brk != heapAlign {
		t.Fatalf("fully-freed heap should return to base, brk=%d", h.brk)
	}
	if len(h.free) != 0 {
		t.Fatalf("free list should be empty, got %v", h.free)
	}
}

// Property: any sequence of allocs and frees keeps allocations disjoint and
// aligned, never double-books live bytes, and a free leaves its range fresh
// memory on every alive PE, its bytes and its timestamps reading zero; a
// failed PE's frozen partition keeps both.
func TestHeapProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		w := testWorld(t, 3)
		defer w.Close()
		w.states[2] = stateFailed
		type blk struct{ off, size int64 }
		var live []blk
		for step, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				size := int64(op%2048) + 1
				off, err := w.Alloc(size)
				if err != nil || off%heapAlign != 0 || off < heapAlign {
					return false
				}
				nb := blk{off, alignUp(size)}
				for _, l := range live {
					if l.off < nb.off+nb.size && nb.off < l.off+l.size {
						return false // overlap with live block
					}
				}
				live = append(live, nb)
				// Dirty the allocation, bytes and stamps, on every PE.
				for pe := range w.pes {
					p := &w.pes[pe]
					p.mu.Lock()
					p.store(off, bytes.Repeat([]byte{byte(step) | 1}, int(min(size, 24))), float64(step+1))
					p.mu.Unlock()
				}
				continue
			}
			i := int(op) % len(live)
			b := live[i]
			frozen := w.pes[2].rangeTs(b.off, b.size)
			if w.Free(b.off) != nil {
				return false
			}
			live = append(live[:i], live[i+1:]...)
			got := make([]byte, b.size)
			for pe := range w.pes {
				w.Read(pe, b.off, got)
				if zero := bytes.Equal(got, make([]byte, len(got))); zero != (pe != 2) {
					return false
				}
				want := 0.0
				if pe == 2 {
					want = frozen
				}
				if w.pes[pe].rangeTs(b.off, b.size) != want {
					return false
				}
			}
		}
		var want int64
		for _, l := range live {
			want += l.size
		}
		var got int64
		for _, a := range w.heap.live {
			got += alignUp(a.size)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A freed allocation is fresh memory: a word stored at t=1000 and freed reads
// 0 with no timestamp when the space is allocated again, so a wait for it to
// be 0 returns at once with causal time 0, not the dead store's 1000. The
// granule the allocation covers whole, crowded dense before the free, is
// given back, and the one it shares with a live word keeps that word's stamp.
func TestFreedMemoryIsFresh(t *testing.T) {
	w := testWorld(t, 1)
	defer w.Close()
	const size = 3 * tsBlockBytes // covers granule 1 of page 0 whole
	below, err := w.Alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	off, err := w.Alloc(size)
	if err != nil {
		t.Fatal(err)
	}
	word := int64(tsBlockBytes) // word 0 of granule 1
	err = w.Run(func(p *PE) {
		w.Write(0, below, []byte{1}, 7) // a live word in granule 0
		w.Write(0, off, []byte{1}, 1000)
		for i := range int64(tsPackedCap + 1) {
			w.Write(0, word+8*i, []byte{byte(i) | 1}, 1000)
		}
		pg := w.pes[0].seg.pages[0]
		if pg.dense[1] == nil {
			t.Error("granule 1 did not turn dense")
			return
		}
		if err := w.Free(off); err != nil {
			t.Error(err)
			return
		}
		if again, err := w.Alloc(size); err != nil || again != off {
			t.Errorf("Alloc after Free = %d, %v; want %d", again, err, off)
			return
		}
		if got, ts := p.WaitWord(word, CmpEQ, 0); got != 0 || ts != 0 {
			t.Errorf("wait on the freed word = %d at t=%v, want 0 at t=0", got, ts)
		}
		if pg.dense[1] != nil || pg.packed[1] != nil {
			t.Error("granule 1 kept its timestamps after the free")
		}
		if ts := p.rangeTs(off, size); ts != 0 {
			t.Errorf("the freed range reads t=%v, want 0", ts)
		}
		if ts := p.rangeTs(below, 8); ts != 7 {
			t.Errorf("the live word below the allocation reads t=%v, want 7", ts)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHeapAllocFree(b *testing.B) {
	w, err := NewWorld(fabric.Stampede(), 1)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := w.Alloc(256)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Free(off); err != nil {
			b.Fatal(err)
		}
	}
}
