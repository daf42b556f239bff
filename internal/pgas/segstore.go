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
// first record on each granule (tsindex.go); its bytes (segBytes: the 16 KiB
// array and its dirty range) only at the first store that holds a non-zero
// byte. A page without bytes reads as zero, which is exactly what unwritten
// memory is, so a span of zeros of any length stores no bytes onto it (put),
// a piece of at most tsTrackMaxBytes still records its timestamps, and a
// longer one onto a page without a record materialises nothing at all.
// Whether a span is all zero is one compare against the process-wide zero
// source (isZero): a piece taken from Zeros costs O(1), any other is scanned.
//
// Every part outlives the store: release gives records, bytes, packed records
// and dense blocks back to a free list each (freeList), and the next store
// takes from there before it asks the runtime, so a program that builds
// hundreds of short-lived worlds — every figure of the paper is one — keeps
// re-using the same memory instead of asking for fresh zeroed pages.
// Recycled bytes remember the range their last owner dirtied; the store that
// takes them clears exactly the part of that range its first write does not
// cover (bytesFor), so recycled memory is indistinguishable from new and a
// flag-sized first write does not pay for 16 KiB of memclr.
//
// All methods must be called with the owning PE's mu held.
type segStore struct {
	// pages is the one page table, nil where nothing was stored. It spans the
	// highest offset written, so its entries are single pointers.
	pages []*segPage
	// sparse holds isolated timestamp records on granules not yet in use,
	// in no order; see recordWordSparse.
	sparse []sparseTs
	// Observability (World.PageStats): page records, byte arrays, packed
	// records and dense timestamp blocks brought into use since the store was
	// created, how many of each were new memory rather than recycled, and the
	// bytes cleared while handing out the recycled ones.
	materialised, fresh             int
	dataMaterialised, dataFresh     int
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

// segBytes is the bytes of one page and the in-page range [lo, hi) written
// since they were last known zero. The array is its own allocation so that
// it stays in the allocator's exact 16 KiB size class.
type segBytes struct {
	buf    *[segPageSize]byte
	lo, hi int64
}

const (
	// 16 KiB pages. A page is the unit a first write materialises, so the
	// size trades the waste of a flag-sized write against the per-page walk
	// of a bulk one and the length of the page table: at 64 KiB the DHT's
	// 2048 lock and bucket words cost 128 MiB of pages (DESIGN.md "Partition
	// memory life cycle").
	segPageShift = 14
	segPageSize  = int64(1) << segPageShift
	segPageMask  = segPageSize - 1
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

// The free lists of the four parts of a page: records, bytes, and the packed
// and dense layouts of a granule's timestamps.
var (
	segRecordFree freeList[segPage]
	segBytesFree  freeList[segBytes]
	tsPackedFree  freeList[tsPacked]
	tsDenseFree   freeList[tsBlock]
)

// zeros is the process-wide read-only zero source. It lives in BSS, so it
// costs a process resident memory only as the kernel's shared zero page.
var zeros [4 << 20]byte

// segZeroPage is the shared read-only view handed out for pages without
// bytes. Callers must never write through slices returned by view.
var segZeroPage = zeros[:segPageSize]

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

// bytesFor returns the bytes of pg for a caller about to store its in-page
// span [lo, hi), which joins their dirty range. A page without bytes takes
// them from their free list: of recycled bytes only the stale ones outside
// [lo, hi) are cleared — the store overwrites the rest at once, so a bulk
// put into new memory pays one memmove and no memclr — and on an empty list
// it allocates an array the runtime already zeroed.
func (s *segStore) bytesFor(pg *segPage, lo, hi int64) *[segPageSize]byte {
	if d := pg.data; d != nil {
		d.lo, d.hi = min(d.lo, lo), max(d.hi, hi)
		return d.buf
	}
	d := segBytesFree.get()
	if d != nil {
		if below := min(lo, d.hi); below > d.lo {
			clear(d.buf[d.lo:below])
			s.cleared += below - d.lo
		}
		if above := max(hi, d.lo); above < d.hi {
			clear(d.buf[above:d.hi])
			s.cleared += d.hi - above
		}
	} else {
		d = &segBytes{buf: new([segPageSize]byte)}
		s.dataFresh++
	}
	d.lo, d.hi = lo, hi
	pg.data = d
	s.dataMaterialised++
	return d.buf
}

// stores reports whether span, the bytes at offset at of their piece, puts
// anything onto the page whose record is pg (nil: none): every span does onto
// a page with bytes, and onto one without, a span with a non-zero byte.
func stores(pg *segPage, span []byte, at int64) bool {
	return pg != nil && pg.data != nil || !isZero(span, at)
}

// readPage returns the page containing byte off for reading: its bytes, or
// the shared zero page where it has none.
func (s *segStore) readPage(off int64) []byte {
	if pg := s.at(off >> segPageShift); pg != nil && pg.data != nil {
		return pg.data.buf[:]
	}
	return segZeroPage
}

// release gives every page record and each of its parts, bytes, packed
// records and dense blocks, back to its free list, the record bare; what the
// store held, bytes and timestamps, now reads as zero.
func (s *segStore) release() {
	for _, pg := range s.pages {
		if pg == nil {
			continue
		}
		if pg.data != nil {
			segBytesFree.put(pg.data)
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

// writeAt copies data into the store at off, page by page, materialising
// what each page's span stores (stores). The caller has already checked the
// range (checkRange).
func (s *segStore) writeAt(off int64, data []byte) {
	for at := int64(0); at < int64(len(data)); {
		pn, lo := off>>segPageShift, off&segPageMask
		n := min(int64(len(data))-at, segPageSize-lo)
		if span, pg := data[at:at+n], s.at(pn); stores(pg, span, at) {
			if pg == nil {
				pg = s.page(pn)
			}
			copy(s.bytesFor(pg, lo, lo+n)[lo:], span)
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
// recordRange. A piece of zeros stores no bytes onto a page without them, and
// a longer one onto a page without a record materialises nothing. The caller
// has already checked the range (checkRange).
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
	st := pg != nil && pg.data != nil || !c.zero && !isZero(data, 0)
	if !st && n > tsTrackMaxBytes {
		return
	}
	if pg == nil {
		pg = c.s.page(pn)
		c.pg = pg
	}
	if st {
		buf := c.s.bytesFor(pg, lo, hi)
		switch n {
		case 4:
			*(*[4]byte)(buf[lo:]) = [4]byte(data)
		case 8:
			*(*[8]byte)(buf[lo:]) = [8]byte(data)
		default:
			copy(buf[lo:hi], data)
		}
	}
	if n > tsTrackMaxBytes {
		return
	}
	// A piece inside one granule, as all but a few are, skips record's walk.
	w0, w1 := lo>>3, (hi-1)>>3
	if g := w0 >> tsBlockShift; g == w1>>tsBlockShift {
		c.s.raise(pg, pn, g, w0&tsBlockMask, w1&tsBlockMask, ts)
	} else {
		c.s.record(pg, pn, w0, w1, ts)
	}
}

// readAt copies bytes [off, off+len(dst)) into dst, page by page: from a page
// with bytes, and zeros for a page without. Nothing is materialised. No other
// bound is needed: a byte past every write was never stored, or, on recycled
// bytes, cleared when its page was handed out (bytesFor).
func (s *segStore) readAt(off int64, dst []byte) {
	for len(dst) > 0 {
		lo := off & segPageMask
		n := min(int64(len(dst)), segPageSize-lo)
		if pg := s.at(off >> segPageShift); pg != nil && pg.data != nil {
			copy(dst[:n], pg.data.buf[lo:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += n
	}
}

// clearRange zeroes the bytes [off, off+n) of the pages that have bytes,
// within what each has dirtied; a page without bytes already reads as zero
// and stays without. Nothing is materialised, and timestamps are left as
// they are.
func (s *segStore) clearRange(off, n int64) {
	for end := off + n; off < end; off = (off | segPageMask) + 1 {
		pn := off >> segPageShift
		if pn >= int64(len(s.pages)) {
			return
		}
		if pg := s.pages[pn]; pg != nil && pg.data != nil {
			d := pg.data
			lo, hi := max(off&segPageMask, d.lo), min(end-pn<<segPageShift, d.hi)
			if lo < hi {
				clear(d.buf[lo:hi])
			}
		}
	}
}

// view returns a read-only window over [off, off+n). When the range lies
// within a single page the page memory is aliased directly (zero-copy — this
// is the WaitUntil spin path, re-evaluated on every wakeup); a range crossing
// a page boundary is gathered into scratch. Callers must not write through
// the result and must not retain it past the next store.
func (s *segStore) view(off, n int64, scratch []byte) []byte {
	if (off >> segPageShift) == ((off + n - 1) >> segPageShift) {
		return s.readPage(off)[off&segPageMask : (off&segPageMask)+n]
	}
	s.readAt(off, scratch[:n])
	return scratch[:n]
}
