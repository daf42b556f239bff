package pgas

import "math/bits"

// The timestamp half of segStore: the latest virtual time at which each
// 8-byte-aligned word of the partition became visible. The stamps live on
// the partition's own page records (segstore.go) — one page table, and a
// write that has resolved its page for the bytes has resolved it for the
// timestamps — one granule of 512 words (4 KiB of partition) at a time, in
// one of two layouts:
//
//   - packed (tsPacked), where every granule starts at its first record: a
//     512-bit presence mask and the stamps of at most tsPackedCap recorded
//     words in word order, a word's stamp found by its rank in the mask;
//   - dense (tsBlock), one float64 per word, which a granule takes when a
//     record would bring its recorded words past tsPackedCap. The packed
//     stamps fold into the block by max, and the packed record is freed.
//
// Flag and control words cluster, so most granules that are recorded on at
// all hold a handful of words (the strided panels of Figs 6-7 record at most
// 64 in nine granules of ten) and cost a packed record, not a 4 KiB block.
// Both layouts answer every query exactly as a dense block would: a packed
// word holds the max-merge of its records over 0, and a word without a stamp
// reads 0. A record needs no bytes: a store of zeros onto a page without them
// records its timestamps and nothing else.
//
// Packed records and dense blocks leave their page at release, or when the
// heap's Free covers their granule (forget), and recycle through free lists
// of their own (tsPackedFree, tsDenseFree). The next owner resets what it
// takes: a packed record's mask and counts, a dense block whole — every read
// of the index is a max-merge against what the layout holds, so there is no
// "about to be overwritten" span to spare as there is for the bytes.
//
// Recording is unconditional for small writes even when no waiter is
// registered: WaitUntil recovers a write's causal timestamp through this
// index precisely when the write raced ahead of the watch registration, so
// gating recording on waiter presence would make virtual-time results depend
// on host scheduling. See DESIGN.md "Host-performance model".

const (
	tsBlockShift = 9                 // 512 words per granule = 4 KiB of partition
	tsBlockWords = 1 << tsBlockShift //
	tsBlockMask  = tsBlockWords - 1
	tsBlockBytes = tsBlockWords * 8 // host memory of a dense block, and the span a granule covers
	tsPageShift  = segPageShift - 3 // words per segment page
	tsPageMask   = 1<<tsPageShift - 1
	segGranules  = segPageSize / tsBlockBytes

	// A packed record holds tsPackedCap stamps; of its tsPackedBytes, a
	// recycled one clears the tsPackedIndexBytes of its mask and counts.
	tsPackedCap        = 64
	tsPackedIndexBytes = tsBlockWords/8 + tsBlockWords/64
	tsPackedBytes      = tsPackedIndexBytes + 8 + tsPackedCap*8
)

// tsBlock is a dense granule: word i's stamp is element i.
type tsBlock [tsBlockWords]float64

// tsPacked is a packed granule: word i has a stamp when bit i of mask is set,
// and it is ts[rank(i)]; ts[n:] is stale. below[k] counts the stamps of the
// words below mask[k]'s, so that a rank is one popcount.
type tsPacked struct {
	mask  [tsBlockWords / 64]uint64
	below [tsBlockWords / 64]uint8
	n     int
	ts    [tsPackedCap]float64
}

// rank returns how many recorded words of p lie below word i, 0 <= i <= 512:
// the index of word i's stamp, or where it would be inserted.
func (p *tsPacked) rank(i int64) int {
	if i == tsBlockWords {
		return p.n
	}
	k := i >> 6 & (int64(len(p.mask)) - 1) // i < 512: the mask only spares the bounds checks
	return int(p.below[k]) + bits.OnesCount64(p.mask[k]&(1<<(i&63)-1))
}

// fits reports whether words [a, b] can all be recorded in p without passing
// tsPackedCap.
func (p *tsPacked) fits(a, b int64) bool {
	return p.n+int(b-a+1) <= tsPackedCap || p.fitsCounted(a, b)
}

// fitsCounted is fits for a span that would not fit if none of its words had
// a stamp yet: it counts those that have. It is apart so that fits, on every
// packed record's path, inlines.
func (p *tsPacked) fitsCounted(a, b int64) bool {
	return p.n+int(b-a+1)-(p.rank(b+1)-p.rank(a)) <= tsPackedCap
}

// raise lifts words [a, b] of p to ts; the caller has checked that they fit.
// The span's words without a stamp are inserted in one pass: the stamps above
// the span shift up by their number, and each word of the span takes its own
// stamp or 0, what a dense block holds for a word never recorded. Then every
// stamp of the span is raised.
func (p *tsPacked) raise(a, b int64, ts float64) {
	lo, hi := p.rank(a), p.rank(b+1)
	span := int(b - a + 1)
	if add := span - (hi - lo); add > 0 {
		copy(p.ts[hi+add:p.n+add], p.ts[hi:p.n])
		if add == span { // none had a stamp
			clear(p.ts[lo : lo+span])
			for i := a; i <= b; {
				e := min(b, i|63)
				p.mask[i>>6] |= 2<<(e&63) - 1<<(i&63) // bits i through e
				i = e + 1
			}
		} else { // merge, from the highest word down
			for i, j := b, hi+add-1; i >= a; i, j = i-1, j-1 {
				if k, m := i>>6, uint64(1)<<(i&63); p.mask[k]&m != 0 {
					hi--
					p.ts[j] = p.ts[hi]
				} else {
					p.ts[j] = 0
					p.mask[k] |= m
				}
			}
		}
		p.n += add
		for k := a>>6 + 1; k <= b>>6; k++ {
			p.below[k] = p.below[k-1] + uint8(bits.OnesCount64(p.mask[k-1]))
		}
		for k := b>>6 + 1; k < int64(len(p.below)); k++ {
			p.below[k] += uint8(add)
		}
	}
	st := p.ts[lo : lo+span]
	for r := range st {
		if ts > st[r] {
			st[r] = ts
		}
	}
}

// raiseWord lifts word i of p to ts where it has a stamp, and reports whether
// it had one: one rank, one test and a max. It is apart from insertWord, the
// miss, so that it inlines into segStore.raise, where every 4- and 8-byte
// piece lands.
func (p *tsPacked) raiseWord(i int64, ts float64) bool {
	k, m := i>>6&(int64(len(p.mask))-1), uint64(1)<<(i&63)
	if p.mask[k]&m == 0 {
		return false
	}
	// r < tsPackedCap: the mask only spares the bounds check.
	r := (int(p.below[k]) + bits.OnesCount64(p.mask[k]&(m-1))) & (tsPackedCap - 1)
	if ts > p.ts[r] {
		p.ts[r] = ts
	}
	return true
}

// insertWord gives word i of p, which has no stamp, the stamp ts raised over
// 0, as a dense block would hold it; the caller has checked that p is not
// full. The stamps above its rank shift up by one, and none move when it is
// the highest.
func (p *tsPacked) insertWord(i int64, ts float64) {
	r := p.rank(i)
	if r < p.n {
		copy(p.ts[r+1:p.n+1], p.ts[r:p.n])
	}
	p.ts[r] = max(ts, 0)
	k := i >> 6
	p.mask[k] |= 1 << (i & 63)
	for k++; k < int64(len(p.below)); k++ {
		p.below[k]++
	}
	p.n++
}

// drop removes the stamps of words [a, b] from p: the stamps above them shift
// down, and the counts above a's mask word are taken again.
func (p *tsPacked) drop(a, b int64) {
	lo, hi := p.rank(a), p.rank(b+1)
	if lo == hi {
		return
	}
	copy(p.ts[lo:], p.ts[hi:p.n])
	p.n -= hi - lo
	for i := a; i <= b; {
		e := min(b, i|63)
		p.mask[i>>6] &^= 2<<(e&63) - 1<<(i&63) // bits i through e
		i = e + 1
	}
	for k := a>>6 + 1; k < int64(len(p.below)); k++ {
		p.below[k] = p.below[k-1] + uint8(bits.OnesCount64(p.mask[k-1]))
	}
}

// maxOver returns the latest stamp of words [a, b] of p, or 0: their stamps
// are contiguous, from the rank of a to that of b+1.
func (p *tsPacked) maxOver(a, b int64) float64 {
	ts := 0.0
	for _, v := range p.ts[p.rank(a):p.rank(b+1)] {
		ts = max(ts, v)
	}
	return ts
}

// sparseTs is one record of the sparse overlay: word w became visible at ts.
type sparseTs struct {
	w  int64
	ts float64
}

// raise lifts words [a, b] of granule g of pg (page pn) to ts: into the
// packed record while they fit, bringing one into use on the granule's first
// record, and into the dense block from the record that would not fit on.
func (s *segStore) raise(pg *segPage, pn, g, a, b int64, ts float64) {
	d := pg.dense[g]
	if d == nil {
		p := pg.packed[g]
		if p == nil {
			p = s.usePacked(pg, g)
			if len(s.sparse) != 0 {
				s.migrate(pg, pn, g)
				s.raise(pg, pn, g, a, b, ts)
				return
			}
		}
		if a == b {
			if p.raiseWord(a, ts) {
				return
			}
			if p.n < tsPackedCap {
				p.insertWord(a, ts)
				return
			}
		} else if p.fits(a, b) {
			p.raise(a, b, ts)
			return
		}
		d = s.promote(pg, g)
	}
	st := d[a : b+1]
	for i := range st {
		if ts > st[i] {
			st[i] = ts
		}
	}
}

// usePacked gives granule g of pg a packed record and returns it: a recycled
// one, its mask and counts cleared, or a new one.
func (s *segStore) usePacked(pg *segPage, g int64) *tsPacked {
	p := tsPackedFree.get()
	if p != nil {
		p.mask, p.below, p.n = [len(p.mask)]uint64{}, [len(p.below)]uint8{}, 0
		s.cleared += tsPackedIndexBytes
	} else {
		p = new(tsPacked)
		s.packedFresh++
	}
	pg.packed[g] = p
	s.packedMaterialised++
	return p
}

// migrate moves the sparse records of granule g of pg (page pn), which has
// just come into use, into it, so a word's timestamp lives in exactly one
// place.
func (s *segStore) migrate(pg *segPage, pn, g int64) {
	first := pn<<tsPageShift + g<<tsBlockShift
	for i := 0; i < len(s.sparse); {
		if e := s.sparse[i]; e.w >= first && e.w < first+tsBlockWords {
			s.sparse[i] = s.sparse[len(s.sparse)-1]
			s.sparse = s.sparse[:len(s.sparse)-1]
			s.raise(pg, pn, g, e.w-first, e.w-first, e.ts)
		} else {
			i++
		}
	}
}

// promote turns packed granule g of pg dense and returns its block: a dense
// block, recycled and cleared whole or new, takes the packed stamps — into a
// clear block, a word's stamp is its max — and the packed record goes back to
// its free list.
func (s *segStore) promote(pg *segPage, g int64) *tsBlock {
	d := tsDenseFree.get()
	if d != nil {
		clear(d[:])
		s.cleared += tsBlockBytes
	} else {
		d = new(tsBlock)
		s.tsFresh++
	}
	s.tsMaterialised++
	p := pg.packed[g]
	r := 0
	for k, m := range p.mask {
		for ; m != 0; m &= m - 1 {
			d[k<<6+bits.TrailingZeros64(m)] = p.ts[r]
			r++
		}
	}
	pg.packed[g], pg.dense[g] = nil, d
	tsPackedFree.put(p)
	return d
}

// forget drops the recorded timestamps of the words of [off, off+n), off and
// n multiples of 8, so that they read 0 as words never recorded do: the
// heap's Free calls it, and memory allocated again starts without the stamps
// of a dead allocation's writes. The overlay's records in the range go, and
// the walk is over the pages, skipping those without a record: a granule the
// range covers whole gives its packed record or dense block back to its free
// list, and one it covers in part clears those words of its block or drops
// them from its record, which goes back when it holds none.
func (s *segStore) forget(off, n int64) {
	w, end := off>>3, (off+n)>>3 // words [w, end)
	for i := 0; i < len(s.sparse); {
		if e := s.sparse[i]; e.w >= w && e.w < end {
			s.sparse[i] = s.sparse[len(s.sparse)-1]
			s.sparse = s.sparse[:len(s.sparse)-1]
		} else {
			i++
		}
	}
	for ; w < end && w>>tsPageShift < int64(len(s.pages)); w = (w | tsPageMask) + 1 {
		pg := s.pages[w>>tsPageShift]
		if pg == nil {
			continue
		}
		last := min(end-1, w|tsPageMask) & tsPageMask
		for a := w & tsPageMask; a <= last; a = (a | tsBlockMask) + 1 {
			pg.forget(a>>tsBlockShift, a&tsBlockMask, min(last, a|tsBlockMask)&tsBlockMask)
		}
	}
}

// forget drops the stamps of words [a, b] of granule g of pg.
func (pg *segPage) forget(g, a, b int64) {
	whole := a == 0 && b == tsBlockMask
	if d := pg.dense[g]; d != nil {
		if whole {
			pg.dense[g] = nil
			tsDenseFree.put(d)
		} else {
			clear(d[a : b+1])
		}
	} else if p := pg.packed[g]; p != nil {
		if !whole {
			p.drop(a, b)
		}
		if whole || p.n == 0 {
			pg.packed[g] = nil
			tsPackedFree.put(p)
		}
	}
}

// record raises the recorded timestamp to ts for words [w0, w1] of pg, which
// is page pn; the words are counted from the start of the page.
func (s *segStore) record(pg *segPage, pn, w0, w1 int64, ts float64) {
	for w0 <= w1 {
		end := min(w1, w0|tsBlockMask)
		s.raise(pg, pn, w0>>tsBlockShift, w0&tsBlockMask, end&tsBlockMask, ts)
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

// recordWordSparse raises the recorded timestamp of the single word covering
// byte offset off, in its granule when that is in use and in the sparse
// overlay otherwise — materialising neither page nor granule, nor growing the
// page table. It is for the symmetric-heap allocator's region-backing Touches,
// which land one word at the end of each allocation and would otherwise each
// materialise memory during world construction (at 10k PEs that dominated
// set-up cost and memory). A word recorded here stays in the overlay until a
// record onto its page brings its granule into use, and the overlay — at most
// one entry per heap allocation — is scanned by every maxRange.
func (s *segStore) recordWordSparse(off int64, ts float64) {
	w := off >> 3
	if pg, g := s.at(w>>tsPageShift), w&tsPageMask>>tsBlockShift; pg != nil && (pg.dense[g] != nil || pg.packed[g] != nil) {
		s.raise(pg, w>>tsPageShift, g, w&tsBlockMask, w&tsBlockMask, ts)
		return
	}
	for i := range s.sparse {
		if e := &s.sparse[i]; e.w == w {
			e.ts = max(e.ts, ts)
			return
		}
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
		if pg := s.pages[w>>tsPageShift]; pg != nil {
			g, a, b := w&tsPageMask>>tsBlockShift, w&tsBlockMask, end&tsBlockMask
			if d := pg.dense[g]; d != nil {
				for _, v := range d[a : b+1] {
					ts = max(ts, v)
				}
			} else if p := pg.packed[g]; p != nil {
				ts = max(ts, p.maxOver(a, b))
			}
		}
		w = end + 1
	}
	return ts
}
