package pgas

import "sync"

// tsIndex is the per-partition visibility-timestamp index: the latest virtual
// time at which each 8-byte-aligned word became visible. It replaces the
// original map[int64]float64 with a paged sparse array — flag and control
// words cluster at low offsets (the symmetric heap allocates bottom-up), so a
// page table of small dense pages gives O(1) lookup with two array indexes
// and no hashing on the write hot path, while partitions that are never
// waited on cost only the (lazily grown) page-pointer slice.
//
// Like segment pages, timestamp pages outlive the index: they come from the
// process-wide tsPagePool and return to it when the owning world is closed
// (release). A recycled page is cleared whole on hand-out — it is 4 KiB, and
// every read of the index is a max-merge against what the page holds, so
// there is no "about to be overwritten" span to spare as there is for a
// segment store.
//
// Recording is unconditional for small writes even when no waiter is
// registered: WaitUntil recovers a write's causal timestamp through this
// index precisely when the write raced ahead of the watch registration, so
// gating recording on waiter presence would make virtual-time results depend
// on host scheduling. See DESIGN.md "Host-performance model".

const (
	tsPageShift = 9                // 512 words per page = one 4 KiB span of partition
	tsPageWords = 1 << tsPageShift //
	tsPageMask  = tsPageWords - 1
	tsPageBytes = tsPageWords * 8 // host memory of one page
)

type tsIndex struct {
	pages [][]float64
	// sparse holds isolated word records on pages the dense path never
	// wrote: the symmetric-heap allocator's region-backing Touches, which
	// land one word at the end of each allocation and would otherwise each
	// materialise a 4 KiB page (and grow the page table) during world
	// construction — at 10k PEs those pages dominated setup cost and
	// memory. Entries migrate into the dense page if one is later
	// allocated, so the flag/lock-word hot path stays map-free.
	sparse map[int64]float64
	// materialised counts pages handed out since the index was created, fresh
	// those among them that were new memory (World.PageStats).
	materialised int
	fresh        int
}

// tsPagePool recycles timestamp pages across worlds; array pointers, no New,
// unbounded — see segPagePool.
var tsPagePool sync.Pool

// release returns every page to tsPagePool and drops the overlay.
func (t *tsIndex) release() {
	for _, p := range t.pages {
		if p != nil {
			tsPagePool.Put((*[tsPageWords]float64)(p))
		}
	}
	t.pages, t.sparse = nil, nil
}

// page returns the page covering word index w, allocating it (and growing the
// page table geometrically) on first touch. Sparse records covered by the new
// page migrate into it, so a word's timestamp lives in exactly one place.
func (t *tsIndex) page(w int64) []float64 {
	pg := int(w >> tsPageShift)
	if pg >= len(t.pages) {
		n := len(t.pages) * 2
		if n < pg+1 {
			n = pg + 1
		}
		if n < 4 {
			n = 4
		}
		np := make([][]float64, n)
		copy(np, t.pages)
		t.pages = np
	}
	p := t.pages[pg]
	if p == nil {
		if rp, ok := tsPagePool.Get().(*[tsPageWords]float64); ok {
			p = rp[:]
			clear(p)
		} else {
			p = make([]float64, tsPageWords)
			t.fresh++
		}
		t.pages[pg] = p
		t.materialised++
		if len(t.sparse) > 0 {
			for sw, sts := range t.sparse {
				if int(sw>>tsPageShift) == pg {
					if i := int(sw & tsPageMask); sts > p[i] {
						p[i] = sts
					}
					delete(t.sparse, sw)
				}
			}
		}
	}
	return p
}

// recordWordSparse raises the recorded timestamp of the single word covering
// byte offset off, preferring the dense page when one exists and the sparse
// overlay otherwise — neither materialising a page nor growing the page
// table. Only rare records (heap-backing Touches) should use this: a word
// recorded here stays in the overlay until a dense write materialises its
// page, and overlay entries cost a map lookup pass per maxRange.
func (t *tsIndex) recordWordSparse(off int64, ts float64) {
	w := off >> 3
	if pg := int(w >> tsPageShift); pg < len(t.pages) && t.pages[pg] != nil {
		if i := int(w & tsPageMask); ts > t.pages[pg][i] {
			t.pages[pg][i] = ts
		}
		return
	}
	if t.sparse == nil {
		t.sparse = map[int64]float64{}
	}
	if old, ok := t.sparse[w]; !ok || ts > old {
		t.sparse[w] = ts
	}
}

// recordRange raises the recorded timestamp to ts for every word overlapping
// the byte range [off, off+n).
func (t *tsIndex) recordRange(off, n int64, ts float64) {
	w := off >> 3
	last := (off + n - 1) >> 3
	for w <= last {
		p := t.page(w)
		i := int(w & tsPageMask)
		end := int64(tsPageWords - i)
		if rem := last - w + 1; rem < end {
			end = rem
		}
		for k := 0; int64(k) < end; k++ {
			if ts > p[i+k] {
				p[i+k] = ts
			}
		}
		w += end
	}
}

// maxRange returns the latest recorded timestamp over the byte range
// [off, off+n), or 0 when no overlapping word was ever recorded.
func (t *tsIndex) maxRange(off, n int64) float64 {
	ts := 0.0
	w := off >> 3
	last := (off + n - 1) >> 3
	if len(t.sparse) > 0 {
		// One pass over the (small) overlay, not one lookup per word: the
		// overlay holds at most one entry per heap allocation.
		for sw, sts := range t.sparse {
			if sw >= w && sw <= last && sts > ts {
				ts = sts
			}
		}
	}
	for w <= last {
		pg := int(w >> tsPageShift)
		if pg >= len(t.pages) {
			break // beyond every recorded word
		}
		i := int(w & tsPageMask)
		end := int64(tsPageWords - i)
		if rem := last - w + 1; rem < end {
			end = rem
		}
		if p := t.pages[pg]; p != nil {
			for k := 0; int64(k) < end; k++ {
				if p[i+k] > ts {
					ts = p[i+k]
				}
			}
		}
		w += end
	}
	return ts
}
