package pgas

import (
	"bytes"
	"sync"
)

// segStore is the paged backing store for one PE's partition: its bytes and,
// on the same pages, the visibility timestamps of its words (tsindex.go).
// Partitions are logically contiguous, zero-initialised byte ranges up to
// MaxSegmentBytes, but real programs write them sparsely: the CAF runtime
// places a large, mostly-idle staging buffer below the densely-used coarray
// data, and the symmetric-heap Malloc protocol establishes regions far larger
// than what is ever stored. A flat []byte would materialise every zero byte
// below the highest written offset (hundreds of MB per world at 256 PEs).
//
// A page has three parts with their own life cycles. Its record (segPage)
// materialises at the first store or timestamp record on the page; its
// timestamps, a packed record or a dense block per 4 KiB granule, at the
// first record on each granule (tsindex.go); its bytes (segBytes) only at the
// first store that holds a non-zero byte. The bytes, like the timestamps,
// start small and grow only when crowded: a first store inside one granule
// takes a 4 KiB window over that granule, one across granules the whole
// 16 KiB page, and a later store that leaves the window widens it to the
// page (growBytes). The DHT's control words and MCS qnodes cost each image
// two windows, not two pages. A page without bytes reads as zero, which is
// exactly what unwritten memory is, and so does a page's memory outside its
// window: a span of zeros of any length stores no bytes there (put), a piece
// of at most tsTrackMaxBytes still records its timestamps, and a longer one
// onto a page without a record materialises nothing at all. Whether a span is
// all zero is one compare against the process-wide zero source (isZero): a
// piece taken from Zeros costs O(1), any other is scanned.
//
// Every part outlives the store: release gives records, windows, full pages of
// bytes, packed records and dense blocks back to a free list each (freeList),
// and the next store takes from there before it asks the runtime, so a
// program that builds hundreds of short-lived worlds — every figure of the
// paper is one — keeps re-using the same memory instead of asking for fresh
// zeroed pages. Recycled bytes remember the range of their buffer their last
// owner dirtied; the store that takes them clears exactly the part of that
// range its first write does not cover (takeBytes), so recycled memory is
// indistinguishable from new and a flag-sized first write does not pay for
// 4 KiB of memclr.
//
// All methods must be called with the owning PE's mu held.
type segStore struct {
	// pages is the one page table, nil where nothing was stored. It spans the
	// highest offset written, so its entries are single pointers.
	pages []*segPage
	// sparse holds isolated timestamp records on granules not yet in use,
	// in no order; see recordWordSparse.
	sparse []sparseTs
	// Observability (World.PageStats): page records, pages with bytes (and
	// of them, those whose bytes are still a window), packed records and
	// dense timestamp blocks brought into use since the store was created;
	// how many records, byte buffers, packed records and dense blocks were
	// recycled rather than new memory, the new memory of the byte buffers,
	// and the bytes cleared while handing out the recycled ones.
	materialised, fresh             int
	dataMaterialised, windows       int
	dataRecycled                    int
	dataFreshBytes                  int64
	packedMaterialised, packedFresh int
	tsMaterialised, tsFresh         int
	cleared                         int64
}

// segPage is the record of one page of a partition: the timestamps of each
// 4 KiB granule that was recorded on, packed or dense (at most one of the
// two), and the page's bytes once something other than zeros was stored
// there.
type segPage struct {
	data   *segBytes // nil while the page reads as zero
	packed [segGranules]*tsPacked
	dense  [segGranules]*tsBlock
}

// segBytes is the bytes of one page in one of two layouts: a window, the
// segWindowSize bytes of the granule at in-page offset base, or the full page
// at base 0. Everything of the page outside buf reads as zero. [lo, hi) is
// the range of buf written since it was last known zero, relative to buf, so
// a window recycled onto another granule clears what it must as a full page
// does. buf is its own allocation, in the allocator's exact 4 or 16 KiB size
// class.
type segBytes struct {
	buf    []byte
	base   int64
	lo, hi int64
}

const (
	// 16 KiB pages. A page is the unit of the page table and of a bulk put's
	// bytes, so the size trades the length of the page table against the
	// per-page walk of a bulk put; a flag-sized write takes a window, not the
	// page. At 64 KiB the DHT's 2048 lock and bucket words cost 128 MiB of
	// pages, at 4 KiB its page tables grow 4× (DESIGN.md "Partition memory
	// life cycle").
	segPageShift = 14
	segPageSize  = int64(1) << segPageShift
	segPageMask  = segPageSize - 1

	// A window is one timestamp granule of bytes: the DHT's qnodes and its
	// control, bucket and lock words each fit one, and a bulk put that
	// crosses granules takes the full page at once, so its memmove is never
	// split (DESIGN.md "Partition memory life cycle").
	segWindowSize = tsBlockBytes
	segWindowMask = segWindowSize - 1
)

// freeList is a process-wide stack of recycled parts of pages. Unlike a
// sync.Pool it is not emptied by the collector: what a closed world gave back
// waits for the next world however many collections run in between, so the
// process keeps the peak of its page memory until it exits (DESIGN.md
// "Partition memory life cycle"). get returns nil when the list is empty, and
// the taker then knows its memory came zeroed from the runtime.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return nil
	}
	x := l.items[n-1]
	l.items[n-1], l.items = nil, l.items[:n-1]
	return x
}

func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	l.items = append(l.items, x)
	l.mu.Unlock()
}

// The free lists of the parts of a page: records, the two layouts of its
// bytes, and the packed and dense layouts of a granule's timestamps.
var (
	segRecordFree freeList[segPage]
	segWindowFree freeList[segBytes]
	segBytesFree  freeList[segBytes]
	tsPackedFree  freeList[tsPacked]
	tsDenseFree   freeList[tsBlock]
)

// bytesFree returns the free list of byte buffers of size bytes.
func bytesFree(size int64) *freeList[segBytes] {
	if size == segWindowSize {
		return &segWindowFree
	}
	return &segBytesFree
}

// zeros is the process-wide read-only zero source. It lives in BSS, so it
// costs a process resident memory only as the kernel's shared zero page.
var zeros [4 << 20]byte

// Zeros returns n read-only zero bytes: a prefix of the process-wide zero
// source, or for more than its 4 MiB a buffer of its own. A store of a
// piece taken from it onto memory that reads as zero costs no scan (isZero),
// so it is the source for every bulk store of zeros. Nothing may be written
// through it: every store that was skipped would read back what was.
func Zeros(n int) []byte {
	if n > len(zeros) {
		return make([]byte, n)
	}
	return zeros[:n:n]
}

// isZero reports whether span, at most a page of bytes at offset at of their
// piece, is all zero. It compares them with the zero source at the same offset, so a
// span of a piece taken from Zeros takes runtime.memequal's equal-pointer
// exit; any other is scanned.
func isZero(span []byte, at int64) bool {
	if at+int64(len(span)) > int64(len(zeros)) {
		at = 0
	}
	return bytes.Equal(span, zeros[at:at+int64(len(span))])
}

// at returns the record of page pn, or nil where nothing was stored or
// recorded.
func (s *segStore) at(pn int64) *segPage {
	if pn < int64(len(s.pages)) {
		return s.pages[pn]
	}
	return nil
}

// page returns the record of page pn, materialised. On first touch the page
// table grows geometrically and the record is taken from its free list or
// allocated; it has no bytes and no timestamps yet.
func (s *segStore) page(pn int64) *segPage {
	if pn < int64(len(s.pages)) {
		if pg := s.pages[pn]; pg != nil {
			return pg
		}
	} else {
		newLen := max(int64(cap(s.pages)), 8)
		for newLen <= pn {
			newLen *= 2
		}
		np := make([]*segPage, newLen)
		copy(np, s.pages)
		s.pages = np
	}
	pg := segRecordFree.get()
	if pg == nil {
		pg = new(segPage)
		s.fresh++
	}
	s.pages[pn] = pg
	s.materialised++
	return pg
}

// holds reports whether d, nil for a page without bytes, holds the in-page
// range [lo, hi) in its buffer.
func (d *segBytes) holds(lo, hi int64) bool {
	return d != nil && lo >= d.base && hi <= d.base+int64(len(d.buf))
}

// zero clears the in-page range [lo, hi) of d, nil for a page without bytes:
// of its buffer only what was written since it was last known zero; the rest
// of the page already reads as zero.
func (d *segBytes) zero(lo, hi int64) {
	if d == nil {
		return
	}
	if lo, hi := max(lo-d.base, d.lo), min(hi-d.base, d.hi); lo < hi {
		clear(d.buf[lo:hi])
	}
}

// window returns the destination of a caller about to store the in-page span
// [lo, hi) onto the bytes d, nil for a page without bytes, and joins the span
// to their dirty range; it returns nil where d does not hold the span, and the
// caller takes growBytes. It is the one test on every store's path.
func (d *segBytes) window(lo, hi int64) []byte {
	if !d.holds(lo, hi) {
		return nil
	}
	lo, hi = lo-d.base, hi-d.base
	d.lo, d.hi = min(d.lo, lo), max(d.hi, hi)
	return d.buf[lo:hi]
}

// growBytes is window's out-of-line half, for a span pg's bytes do not hold.
// A page without bytes takes a window where the span lies inside one granule,
// and the full page where it crosses granules, so a bulk put's memmove is
// never split. A page whose window the span leaves widens: it takes the full
// page, moves the window's dirty bytes in at their in-page offsets and gives
// the window back.
func (s *segStore) growBytes(pg *segPage, lo, hi int64) []byte {
	w := pg.data
	var d *segBytes
	if base := lo &^ segWindowMask; w == nil && base == (hi-1)&^segWindowMask {
		d = s.takeBytes(segWindowSize, base, lo, hi)
		s.windows++
	} else {
		d = s.takeBytes(segPageSize, 0, lo, hi)
	}
	if w == nil {
		s.dataMaterialised++
	} else {
		copy(d.buf[w.base+w.lo:], w.buf[w.lo:w.hi])
		d.lo, d.hi = min(d.lo, w.base+w.lo), max(d.hi, w.base+w.hi)
		segWindowFree.put(w)
		s.windows--
	}
	pg.data = d
	return d.buf[lo-d.base : hi-d.base]
}

// takeBytes hands out a buffer of size bytes at in-page offset base for a
// store about to write the in-page span [lo, hi). It comes from its free
// list, of whose stale bytes only those outside the span are cleared — the
// store overwrites the rest at once, so a bulk put into new memory pays one
// memmove and no memclr — or, on an empty list, new memory the runtime
// already zeroed.
func (s *segStore) takeBytes(size, base, lo, hi int64) *segBytes {
	lo, hi = lo-base, hi-base
	d := bytesFree(size).get()
	if d != nil {
		if below := min(lo, d.hi); below > d.lo {
			clear(d.buf[d.lo:below])
			s.cleared += below - d.lo
		}
		if above := max(hi, d.lo); above < d.hi {
			clear(d.buf[above:d.hi])
			s.cleared += d.hi - above
		}
		s.dataRecycled++
	} else {
		d = &segBytes{buf: make([]byte, size)}
		s.dataFreshBytes += size
	}
	d.base, d.lo, d.hi = base, lo, hi
	return d
}

// release gives every page record and each of its parts, bytes (to the list
// of their size), packed records and dense blocks, back to its free list, the
// record bare; what the store held, bytes and timestamps, now reads as zero.
func (s *segStore) release() {
	for _, pg := range s.pages {
		if pg == nil {
			continue
		}
		if d := pg.data; d != nil {
			bytesFree(int64(len(d.buf))).put(d)
		}
		for g := range segGranules {
			if p := pg.packed[g]; p != nil {
				tsPackedFree.put(p)
			}
			if d := pg.dense[g]; d != nil {
				tsDenseFree.put(d)
			}
		}
		*pg = segPage{}
		segRecordFree.put(pg)
	}
	s.pages, s.sparse = nil, nil
}

// writeAt copies data into the store at off, page by page. A span the page's
// bytes hold, or one with a non-zero byte, is stored (window, growBytes); a
// span of zeros elsewhere clears what of the bytes it overlaps and
// materialises nothing. The caller has already checked the range
// (checkRange).
func (s *segStore) writeAt(off int64, data []byte) {
	for at := int64(0); at < int64(len(data)); {
		pn, lo := off>>segPageShift, off&segPageMask
		n := min(int64(len(data))-at, segPageSize-lo)
		span, pg := data[at:at+n], s.at(pn)
		var buf []byte
		if pg != nil {
			buf = pg.data.window(lo, lo+n)
		}
		if buf == nil && !isZero(span, at) {
			if pg == nil {
				pg = s.page(pn)
			}
			buf = s.growBytes(pg, lo, lo+n)
		}
		if buf != nil {
			copy(buf, span)
		} else if pg != nil {
			pg.data.zero(lo, lo+n)
		}
		at += n
		off += n
	}
}

// segCursor is the one write path of a partition: Write, WriteV, WriteRuns
// and the atomics all land their pieces through put. It keeps the page of the
// previous piece, so a strided transfer resolves a page once per page it
// walks, not once per element and again for the timestamps. A page it holds
// no record for is looked up again at its next piece: a piece straddling
// pages may have materialised one meanwhile.
type segCursor struct {
	s  *segStore
	pn int64    // page number of pg; -1 before the first piece
	pg *segPage // nil: page pn had no record at its last piece
	// zero: every piece is known to be all zero, so none is tested. A
	// vectored op tests its whole source once (zeroCursor); a single store
	// tests its piece only where it lands on a page without bytes.
	zero bool
}

func (s *segStore) cursor() segCursor { return segCursor{s: s, pn: -1} }

// zeroCursor is cursor for the pieces of src: one test of the whole source
// against the zero source, O(1) for a source taken from Zeros, spares every
// piece its own.
func (s *segStore) zeroCursor(src []byte) segCursor {
	c := s.cursor()
	c.zero = len(src) <= len(zeros) && isZero(src, 0)
	return c
}

// put stores data at off, visible at ts: the bytes, and for a piece of at most
// tsTrackMaxBytes the per-word timestamps. A piece inside one page goes
// straight to the page in hand; one that straddles pages takes writeAt and
// recordRange. A piece of zeros is stored only where the page's bytes hold
// it: elsewhere it clears what of them it overlaps, so it never materialises
// or widens a page's bytes, and a longer one onto a page without a record
// materialises nothing. The caller has already checked the range
// (checkRange).
func (c *segCursor) put(off int64, data []byte, ts float64) {
	n := int64(len(data))
	lo := off & segPageMask
	hi := lo + n
	if hi > segPageSize {
		c.s.writeAt(off, data)
		if n <= tsTrackMaxBytes {
			c.s.recordRange(off, n, ts)
		}
		return
	}
	pn := off >> segPageShift
	pg := c.pg
	if pn != c.pn || pg == nil {
		pg = c.s.at(pn)
		c.pn, c.pg = pn, pg
	}
	var buf []byte
	if pg != nil {
		buf = pg.data.window(lo, hi)
	}
	if buf == nil && !c.zero && !isZero(data, 0) {
		if pg == nil {
			pg = c.s.page(pn)
			c.pg = pg
		}
		buf = c.s.growBytes(pg, lo, hi)
	}
	if buf != nil {
		switch n {
		case 4:
			*(*[4]byte)(buf) = [4]byte(data)
		case 8:
			*(*[8]byte)(buf) = [8]byte(data)
		default:
			copy(buf, data)
		}
	} else if pg != nil {
		pg.data.zero(lo, hi)
	}
	if n > tsTrackMaxBytes {
		return
	}
	if pg == nil {
		pg = c.s.page(pn)
		c.pg = pg
	}
	// A piece inside one granule, as all but a few are, skips record's walk.
	w0, w1 := lo>>3, (hi-1)>>3
	if g := w0 >> tsBlockShift; g == w1>>tsBlockShift {
		c.s.raise(pg, pn, g, w0&tsBlockMask, w1&tsBlockMask, ts)
	} else {
		c.s.record(pg, pn, w0, w1, ts)
	}
}

// readAt copies bytes [off, off+len(dst)) into dst, page by page: from the
// buffer of a page whose bytes hold the range, and zeros for what they do not.
// Nothing is materialised. No other bound is needed: a byte past every write
// was never stored, or, on recycled bytes, cleared when its buffer was handed
// out (takeBytes).
func (s *segStore) readAt(off int64, dst []byte) {
	for len(dst) > 0 {
		lo := off & segPageMask
		n := min(int64(len(dst)), segPageSize-lo)
		var d *segBytes
		if pg := s.at(off >> segPageShift); pg != nil {
			d = pg.data
		}
		switch {
		case d.holds(lo, lo+n):
			copy(dst[:n], d.buf[lo-d.base:])
		case d == nil:
			clear(dst[:n])
		default:
			d.readPart(lo, dst[:n])
		}
		dst = dst[n:]
		off += n
	}
}

// readPart copies the in-page range [lo, lo+len(dst)) of d's page into dst,
// a range d's buffer holds only part of, or none: that part from the buffer,
// zeros for the rest.
func (d *segBytes) readPart(lo int64, dst []byte) {
	n := int64(len(dst))
	a := min(max(d.base-lo, 0), n)
	b := max(min(d.base+int64(len(d.buf))-lo, n), a)
	clear(dst[:a])
	if a < b {
		copy(dst[a:b], d.buf[lo+a-d.base:])
	}
	clear(dst[b:])
}

// clearRange zeroes the bytes [off, off+n) of the pages that have bytes,
// within what each has dirtied (segBytes.zero); the rest already reads as
// zero. Nothing is materialised or widened; the timestamps are forget's.
func (s *segStore) clearRange(off, n int64) {
	for end := off + n; off < end; off = (off | segPageMask) + 1 {
		pn := off >> segPageShift
		if pn >= int64(len(s.pages)) {
			return
		}
		if pg := s.pages[pn]; pg != nil {
			pg.data.zero(off&segPageMask, min(end-pn<<segPageShift, segPageSize))
		}
	}
}

// view returns a read-only view of [off, off+n). A range inside one page
// aliases the page's buffer where its bytes hold the range, and the zero
// source where the page has none (zero-copy — this is the WaitUntil spin
// path, re-evaluated on every wakeup); any other range is gathered into
// scratch, which holds at least n bytes. Callers must not write through the
// result and must not retain it past the next store.
func (s *segStore) view(off, n int64, scratch []byte) []byte {
	if lo := off & segPageMask; lo+n <= segPageSize {
		var d *segBytes
		if pg := s.at(off >> segPageShift); pg != nil {
			d = pg.data
		}
		if d == nil {
			return zeros[:n:n]
		}
		if d.holds(lo, lo+n) {
			return d.buf[lo-d.base : lo-d.base+n]
		}
	}
	s.readAt(off, scratch[:n])
	return scratch[:n]
}
