package pgas

import (
	"fmt"
	"sync"
)

// segStore is the paged backing store for one PE's partition: its bytes and,
// on the same pages, the visibility timestamps of its words (tsindex.go).
// Partitions are logically contiguous, zero-initialised byte ranges up to
// MaxSegmentBytes, but real programs write them sparsely: the CAF runtime
// places a large, mostly-idle staging buffer below the densely-used coarray
// data, and the symmetric-heap Malloc protocol establishes regions far larger
// than what is ever stored. A flat []byte would materialise every zero byte
// below the highest written offset (hundreds of MB per world at 256 PEs); the
// paged store materialises only pages that have actually been written. A nil
// page reads as zeros, which is exactly what the unwritten memory is.
//
// Page memory has a life cycle longer than the store's: pages come from the
// process-wide segPagePool and go back to it when the owning world is closed
// (release), so a program that builds hundreds of short-lived worlds — every
// figure of the paper is one — keeps re-using the same few pages instead of
// asking the runtime for fresh zeroed ones. A pooled page remembers the byte
// range its last owner dirtied; the store that takes it clears exactly the
// part of that range its first write does not cover (see page), so recycled
// memory is indistinguishable from new and a flag-sized first write does not
// pay for 16 KiB of memclr.
//
// All methods must be called with the owning PE's mu held.
type segStore struct {
	// pages is the one page table, nil where nothing was stored. It spans the
	// highest offset written, so its entries are single pointers.
	pages  []*segPage
	length int64 // logical extent: the high-water mark of ensure()
	// sparse holds isolated timestamp records on granules no dense record
	// ever touched, in no order; see recordWordSparse.
	sparse []sparseTs
	// Observability (World.PageStats): pages and timestamp blocks brought
	// into use since the store was created, how many of each were new memory
	// rather than recycled, and the bytes cleared while handing out the
	// recycled ones.
	materialised, fresh     int
	tsMaterialised, tsFresh int
	cleared                 int64
}

// segPage is one page of a partition: the data, the timestamp blocks of the
// 4 KiB granules that were recorded on, and the in-page byte range [lo, hi)
// written since the data was last known zero. The data array is its own
// allocation so that it stays in the allocator's exact 16 KiB size class.
type segPage struct {
	data *[segPageSize]byte
	// ts[g] covers granule g once live has bit g; a block without its bit is
	// a spare from an earlier life, stale, which block clears and puts to use
	// in whichever granule asks first.
	ts     [segPageSize / tsBlockBytes]*tsBlock
	lo, hi int64
	live   uint8
}

// dirty widens the page's dirty range over the in-page span [lo, hi).
func (pg *segPage) dirty(lo, hi int64) { pg.lo, pg.hi = min(pg.lo, lo), max(pg.hi, hi) }

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

// segPagePool recycles pages, with whatever timestamp blocks they carry,
// across worlds. It has no New: a miss is visible to page, which then knows
// the memory came zeroed from the runtime. The pool is unbounded by design —
// the GC drops what two cycles did not use.
var segPagePool sync.Pool

// segZeroPage is the shared read-only view handed out for unmaterialised
// pages. Callers must never write through slices returned by view.
var segZeroPage = new([segPageSize]byte)[:]

// ensure extends the logical extent to cover length bytes. No page memory is
// materialised: the new range reads as zero until something is written.
func (s *segStore) ensure(peID int, length int64) {
	if length > MaxSegmentBytes {
		panic(fmt.Sprintf("pgas: PE %d segment would exceed %d bytes (asked %d)", peID, MaxSegmentBytes, length))
	}
	if length > s.length {
		s.length = length
	}
}

// page returns page pn, materialised, for a caller about to store its in-page
// span [lo, hi), which joins the page's dirty range. On first touch the page
// table grows geometrically and the page is taken from segPagePool: of a
// recycled page only the stale bytes outside [lo, hi) are cleared — the store
// overwrites the rest at once, so a bulk put into new memory pays one memmove
// and no memclr — and a pool miss allocates a page the runtime already zeroed.
func (s *segStore) page(pn, lo, hi int64) *segPage {
	if pn < int64(len(s.pages)) {
		if pg := s.pages[pn]; pg != nil {
			pg.dirty(lo, hi)
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
	pg, ok := segPagePool.Get().(*segPage)
	if ok {
		if below := min(lo, pg.hi); below > pg.lo {
			clear(pg.data[pg.lo:below])
			s.cleared += below - pg.lo
		}
		if above := max(hi, pg.lo); above < pg.hi {
			clear(pg.data[above:pg.hi])
			s.cleared += pg.hi - above
		}
		pg.live = 0
	} else {
		pg = &segPage{data: new([segPageSize]byte)}
		s.fresh++
	}
	pg.lo, pg.hi = lo, hi
	s.pages[pn] = pg
	s.materialised++
	return pg
}

// readPage returns the page containing byte off for reading: the materialised
// page, or the shared zero page when nothing was ever stored there.
func (s *segStore) readPage(off int64) []byte {
	if pn := off >> segPageShift; pn < int64(len(s.pages)) {
		if pg := s.pages[pn]; pg != nil {
			return pg.data[:]
		}
	}
	return segZeroPage
}

// release returns every materialised page to segPagePool; what the store
// held, bytes and timestamps, now reads as zero.
func (s *segStore) release() {
	for _, pg := range s.pages {
		if pg != nil {
			segPagePool.Put(pg)
		}
	}
	s.pages, s.sparse = nil, nil
}

// writeAt copies data into the store at off, materialising pages as needed.
// The caller has already called ensure for the range.
func (s *segStore) writeAt(off int64, data []byte) {
	for len(data) > 0 {
		lo := off & segPageMask
		hi := min(lo+int64(len(data)), segPageSize)
		n := copy(s.page(off>>segPageShift, lo, hi).data[lo:hi], data)
		data = data[n:]
		off += int64(n)
	}
}

// segCursor is the one write path of a partition: Write, WriteV, WriteRuns
// and the atomics all land their pieces through put. It keeps the page of the
// previous piece, so a strided transfer resolves a page once per page it
// walks, not once per element and again for the timestamps.
type segCursor struct {
	s  *segStore
	pn int64 // page number of pg; -1 before the first piece
	pg *segPage
}

func (s *segStore) cursor() segCursor { return segCursor{s: s, pn: -1} }

// put stores data at off, visible at ts: the bytes, and for a piece of at most
// tsTrackMaxBytes the per-word timestamps. A piece inside one page goes
// straight to the page in hand; one that straddles pages takes writeAt and
// recordRange. The caller has already called ensure for the range.
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
	pg := c.pg
	if pn := off >> segPageShift; pn != c.pn {
		pg = c.s.page(pn, lo, hi)
		c.pn, c.pg = pn, pg
	} else {
		pg.dirty(lo, hi)
	}
	switch n {
	case 4:
		*(*[4]byte)(pg.data[lo:]) = [4]byte(data)
	case 8:
		*(*[8]byte)(pg.data[lo:]) = [8]byte(data)
	default:
		copy(pg.data[lo:hi], data)
	}
	if n <= tsTrackMaxBytes {
		c.s.record(pg, c.pn, lo>>3, (hi-1)>>3, ts)
	}
}

// readAt copies bytes [off, off+len(dst)) into dst. Bytes beyond the logical
// extent — and bytes on unmaterialised pages — read as zero. It returns the
// number of bytes that lay within the extent, mirroring the prefix-copy
// semantics of reading from a flat slice.
func (s *segStore) readAt(off int64, dst []byte) int {
	if off >= s.length {
		clear(dst)
		return 0
	}
	in := len(dst)
	if off+int64(in) > s.length {
		in = int(s.length - off)
		clear(dst[in:])
	}
	got := dst[:in]
	for len(got) > 0 {
		n := copy(got, s.readPage(off)[off&segPageMask:])
		got = got[n:]
		off += int64(n)
	}
	return in
}

// clearRange zeroes the bytes [off, off+n) of the materialised pages, within
// what each page has dirtied; an unmaterialised page already reads as zero and
// stays unmaterialised. Timestamps are left as they are.
func (s *segStore) clearRange(off, n int64) {
	for end := off + n; off < end; off = (off | segPageMask) + 1 {
		pn := off >> segPageShift
		if pn >= int64(len(s.pages)) {
			return
		}
		if pg := s.pages[pn]; pg != nil {
			lo, hi := max(off&segPageMask, pg.lo), min(end-pn<<segPageShift, pg.hi)
			if lo < hi {
				clear(pg.data[lo:hi])
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
