package pgas

import (
	"fmt"
	"sync"
)

// segStore is the paged backing store for one PE's partition. Partitions are
// logically contiguous, zero-initialised byte ranges up to MaxSegmentBytes,
// but real programs write them sparsely: the CAF runtime places a large,
// mostly-idle staging buffer below the densely-used coarray data, and the
// symmetric-heap Malloc protocol establishes regions far larger than what is
// ever stored. A flat []byte would materialise every zero byte below the
// highest written offset (hundreds of MB per world at 256 PEs); the paged
// store materialises only pages that have actually been written. A nil page
// reads as zeros, which is exactly what the unwritten memory is.
//
// Page memory has a life cycle longer than the store's: pages come from the
// process-wide segPagePool and go back to it when the owning world is closed
// (release), so a program that builds hundreds of short-lived worlds — every
// figure of the paper is one — keeps re-using the same few pages instead of
// asking the runtime for fresh zeroed ones. A pooled page is dirty; the store
// that takes it clears exactly the bytes its first write does not cover (see
// page), so recycled memory is indistinguishable from new.
//
// All methods must be called with the owning PE's mu held.
type segStore struct {
	// pages is the page table, nil where nothing was stored. It spans the
	// highest offset written, so its entries are array pointers, a third the
	// size of slice headers.
	pages  []*[segPageSize]byte
	length int64 // logical extent: the high-water mark of ensure()
	// Observability (World.PageStats): pages materialised since the store was
	// created, how many of them were new memory rather than recycled, and the
	// bytes cleared while handing out the recycled ones.
	materialised int
	fresh        int
	cleared      int64
}

const (
	// 16 KiB pages. A page is the unit a first write materialises (and, on
	// a recycled page, clears), so the size trades the waste of a flag-sized
	// write against the per-page walk of a bulk one and the length of the
	// page table: at 64 KiB the DHT's 2048 lock and bucket words cost
	// 128 MiB of pages (DESIGN.md "Partition memory life cycle").
	segPageShift = 14
	segPageSize  = int64(1) << segPageShift
	segPageMask  = segPageSize - 1
)

// segPagePool recycles page memory across worlds. It holds array pointers, so
// neither Put nor Get boxes a slice header, and it has no New: a miss is
// visible to page, which then knows the memory came zeroed from the runtime.
// The pool is unbounded by design — the GC drops what two cycles did not use.
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

// page returns the materialised page containing byte w. The caller is about
// to store the in-page span [lo, hi). On first write the page table grows
// geometrically and the page is taken from segPagePool: a recycled page is
// cleared outside [lo, hi) only — the store overwrites the rest at once, so a
// bulk put into new memory pays one memmove and no memclr — and a pool miss
// allocates a page the runtime already zeroed.
func (s *segStore) page(w, lo, hi int64) []byte {
	pn := w >> segPageShift
	if pn < int64(len(s.pages)) {
		if pg := s.pages[pn]; pg != nil {
			return pg[:]
		}
	}
	if pn >= int64(len(s.pages)) {
		newLen := int64(cap(s.pages))
		if newLen < 8 {
			newLen = 8
		}
		for newLen <= pn {
			newLen *= 2
		}
		np := make([]*[segPageSize]byte, newLen)
		copy(np, s.pages)
		s.pages = np
	}
	pg, ok := segPagePool.Get().(*[segPageSize]byte)
	if ok {
		clear(pg[:lo])
		clear(pg[hi:])
		s.cleared += segPageSize - (hi - lo)
	} else {
		pg = new([segPageSize]byte)
		s.fresh++
	}
	s.pages[pn] = pg
	s.materialised++
	return pg[:]
}

// readPage returns the page containing byte off for reading: the materialised
// page, or the shared zero page when nothing was ever stored there.
func (s *segStore) readPage(off int64) []byte {
	if pn := off >> segPageShift; pn < int64(len(s.pages)) {
		if pg := s.pages[pn]; pg != nil {
			return pg[:]
		}
	}
	return segZeroPage
}

// release returns every materialised page to segPagePool; what the store
// held now reads as zero.
func (s *segStore) release() {
	for _, pg := range s.pages {
		if pg != nil {
			segPagePool.Put(pg)
		}
	}
	s.pages = nil
}

// writeAt copies data into the store at off, materialising pages as needed.
// The caller has already called ensure for the range.
func (s *segStore) writeAt(off int64, data []byte) {
	for len(data) > 0 {
		lo := off & segPageMask
		hi := min(lo+int64(len(data)), segPageSize)
		n := copy(s.page(off, lo, hi)[lo:hi], data)
		data = data[n:]
		off += int64(n)
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

// zeroByte stores a zero at off if the byte is materialised. An
// unmaterialised byte is already (logically) zero, so no page is allocated —
// this is what makes the Malloc backing touch free for untouched regions.
func (s *segStore) zeroByte(off int64) {
	if pn := off >> segPageShift; pn < int64(len(s.pages)) && s.pages[pn] != nil {
		s.pages[pn][off&segPageMask] = 0
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
