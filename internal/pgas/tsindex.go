package pgas

// The timestamp half of segStore: the latest virtual time at which each
// 8-byte-aligned word of the partition became visible. The records live on
// the partition's own page records (segstore.go) — one page table, and a
// write that has resolved its page for the bytes has resolved it for the
// timestamps — in dense blocks of 512 words, one per 4 KiB granule of the
// page, allocated when the granule is first recorded on: flag and control
// words cluster, so partitions that are never waited on, and the bulk pages of
// those that are, carry no blocks at all. A record needs no bytes: a store of
// zeros onto a page without them records its timestamps and nothing else.
//
// A block stays with its record through the record pool. The next owner of
// the record finds it stale and clears it whole before use — every read of
// the index is a max-merge against what the block holds, so there is no
// "about to be overwritten" span to spare as there is for the bytes.
//
// Recording is unconditional for small writes even when no waiter is
// registered: WaitUntil recovers a write's causal timestamp through this
// index precisely when the write raced ahead of the watch registration, so
// gating recording on waiter presence would make virtual-time results depend
// on host scheduling. See DESIGN.md "Host-performance model".

const (
	tsBlockShift = 9                 // 512 words per block = one 4 KiB granule of partition
	tsBlockWords = 1 << tsBlockShift //
	tsBlockMask  = tsBlockWords - 1
	tsBlockBytes = tsBlockWords * 8 // host memory of one block, and the span it covers
	tsPageShift  = segPageShift - 3 // words per segment page
	tsPageMask   = 1<<tsPageShift - 1
)

type tsBlock [tsBlockWords]float64

// sparseTs is one record of the sparse overlay: word w became visible at ts.
type sparseTs struct {
	w  int64
	ts float64
}

// block returns the timestamp block of granule g of pg (page pn), bringing it
// into use on first touch. It is only the test so that record inlines it.
func (s *segStore) block(pg *segPage, pn, g int64) *tsBlock {
	if pg.live&(1<<g) != 0 {
		return pg.ts[g]
	}
	return s.useBlock(pg, pn, g)
}

// useBlock gives granule g of pg a block: a spare block of the page, cleared,
// or a new one. Sparse records the block covers migrate into it, so a word's
// timestamp lives in exactly one place.
func (s *segStore) useBlock(pg *segPage, pn, g int64) *tsBlock {
	b := pg.ts[g]
	for i := 0; b == nil && i < len(pg.ts); i++ {
		if pg.live&(1<<i) == 0 {
			b, pg.ts[i] = pg.ts[i], nil
		}
	}
	if b != nil {
		clear(b[:])
		s.cleared += tsBlockBytes
	} else {
		b = new(tsBlock)
		s.tsFresh++
	}
	pg.ts[g], pg.live = b, pg.live|1<<g
	s.tsMaterialised++
	first := pn<<tsPageShift + g<<tsBlockShift
	for i := 0; i < len(s.sparse); {
		if e := s.sparse[i]; e.w >= first && e.w < first+tsBlockWords {
			b[e.w-first] = max(b[e.w-first], e.ts)
			s.sparse[i] = s.sparse[len(s.sparse)-1]
			s.sparse = s.sparse[:len(s.sparse)-1]
		} else {
			i++
		}
	}
	return b
}

// record raises the recorded timestamp to ts for words [w0, w1] of pg, which
// is page pn; the words are counted from the start of the page.
func (s *segStore) record(pg *segPage, pn, w0, w1 int64, ts float64) {
	for w0 <= w1 {
		b := s.block(pg, pn, w0>>tsBlockShift)
		end := min(w1, w0|tsBlockMask)
		for i := w0 & tsBlockMask; i <= end&tsBlockMask; i++ {
			if ts > b[i] {
				b[i] = ts
			}
		}
		w0 = end + 1
	}
}

// recordRange raises the recorded timestamp to ts for every word overlapping
// the byte range [off, off+n), materialising the page records under it.
func (s *segStore) recordRange(off, n int64, ts float64) {
	w := off >> 3
	last := (off + n - 1) >> 3
	for w <= last {
		pn := w >> tsPageShift
		end := min(last, w|tsPageMask)
		s.record(s.page(pn), pn, w&tsPageMask, end&tsPageMask, ts)
		w = end + 1
	}
}

// liveBlock returns the block holding word w (counted from the start of the
// partition) if it is in use, else nil.
func (s *segStore) liveBlock(w int64) *tsBlock {
	if pn := w >> tsPageShift; pn < int64(len(s.pages)) && s.pages[pn] != nil {
		if pg, g := s.pages[pn], w&tsPageMask>>tsBlockShift; pg.live&(1<<g) != 0 {
			return pg.ts[g]
		}
	}
	return nil
}

// recordWordSparse raises the recorded timestamp of the single word covering
// byte offset off, in its block when that is in use and in the sparse overlay
// otherwise — materialising neither page nor block, nor growing the page
// table. It is for the symmetric-heap allocator's region-backing Touches,
// which land one word at the end of each allocation and would otherwise each
// materialise memory during world construction (at 10k PEs that dominated
// set-up cost and memory). A word recorded here stays in the overlay until a
// dense record brings its block into use, and the overlay — at most one entry
// per heap allocation — is scanned by every maxRange.
func (s *segStore) recordWordSparse(off int64, ts float64) {
	w := off >> 3
	if b := s.liveBlock(w); b != nil {
		b[w&tsBlockMask] = max(b[w&tsBlockMask], ts)
		return
	}
	for i := range s.sparse {
		if e := &s.sparse[i]; e.w == w {
			e.ts = max(e.ts, ts)
			return
		}
	}
	if s.sparse == nil {
		s.sparse = make([]sparseTs, 0, 8) // a partition's first few allocations in one piece
	}
	s.sparse = append(s.sparse, sparseTs{w, ts})
}

// maxRange returns the latest recorded timestamp over the byte range
// [off, off+n), or 0 when no overlapping word was ever recorded.
func (s *segStore) maxRange(off, n int64) float64 {
	ts := 0.0
	w := off >> 3
	last := (off + n - 1) >> 3
	for _, e := range s.sparse {
		if e.w >= w && e.w <= last {
			ts = max(ts, e.ts)
		}
	}
	for w <= last && w>>tsPageShift < int64(len(s.pages)) {
		end := min(last, w|tsBlockMask)
		if b := s.liveBlock(w); b != nil {
			for _, v := range b[w&tsBlockMask : end&tsBlockMask+1] {
				ts = max(ts, v)
			}
		}
		w = end + 1
	}
	return ts
}
