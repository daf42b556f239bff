package pgas

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"cafshmem/internal/fabric"
)

// The paged store must be indistinguishable from a flat zero-initialised
// byte array: randomised writes and reads (many straddling page boundaries)
// are mirrored against a plain []byte model.
func TestSegStoreMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var s segStore
	const modelLen = 3*int(segPageSize) + 123 // > 3 pages
	model := make([]byte, modelLen)
	for iter := 0; iter < 2000; iter++ {
		off := int64(rng.Intn(modelLen))
		n := rng.Intn(300)
		if off+int64(n) > int64(modelLen) {
			n = modelLen - int(off)
		}
		if rng.Intn(2) == 0 {
			data := make([]byte, n)
			rng.Read(data)
			s.writeAt(off, data)
			copy(model[off:], data)
		} else {
			got := make([]byte, n)
			s.readAt(off, got)
			if !bytes.Equal(got, model[off:off+int64(n)]) {
				t.Fatalf("iter %d: readAt(%d, %d) mismatch", iter, off, n)
			}
		}
	}
}

// Bytes past every write read as zero, whatever the destination held: in the
// store itself, and through a partition's Read, ReadV and ReadRuns, where one
// read spans a page with bytes (recycled ones, 0xFF where their last owner
// wrote), a page with only a timestamp record and a page with nothing.
func TestSegStoreReadsBeyondExtentAreZero(t *testing.T) {
	var s segStore
	s.writeAt(0, []byte{1, 2, 3})
	got := bytes.Repeat([]byte{0xFF}, 16)
	s.readAt(0, got)
	if want := append([]byte{1, 2, 3}, make([]byte, 13)...); !bytes.Equal(got, want) {
		t.Fatalf("readAt = %v, want %v", got, want)
	}

	PreloadDirtyPages(4, 0, segPageSize)
	w := newZeroWorld(t)
	w.Write(1, 100, []byte{1, 2, 3}, 1)
	w.Write(1, segPageSize+8, make([]byte, 8), 2) // a zero word: a stamp, no bytes
	if s := w.PageStats(); s.SegPages != 2 || s.DataPages != 1 {
		t.Fatalf("the two writes materialised %v, want 2 pages, 1 with bytes", s)
	}
	span := bytes.Repeat([]byte{0xFF}, int(2*segPageSize))
	w.Read(1, 100, span)
	if !bytes.Equal(span[:3], []byte{1, 2, 3}) {
		t.Fatalf("three-page read starts %v, want [1 2 3]", span[:3])
	}
	if i := bytes.IndexByte(span[3:], 0xFF); i >= 0 {
		t.Fatalf("three-page read: byte %d was not overwritten with zero", 103+int64(i))
	}
	past := 2 * segPageSize
	gotV := bytes.Repeat([]byte{0xFF}, 32)
	w.ReadV(1, past, 1000, 8, gotV)
	gotR := bytes.Repeat([]byte{0xFF}, 24)
	w.ReadRuns(1, past, []int64{0, 5 * segPageSize, 1 << 30}, 8, gotR)
	for what, b := range map[string][]byte{"ReadV": gotV, "ReadRuns": gotR} {
		if !bytes.Equal(b, make([]byte, len(b))) {
			t.Errorf("%s past every write = %v, want zeros", what, b)
		}
	}
	if s := w.PageStats(); s.SegPages != 2 {
		t.Errorf("the reads materialised pages: %v", s)
	}
}

func TestSegStoreViewCrossingPages(t *testing.T) {
	var s segStore
	// Straddle the first page boundary.
	off := segPageSize - 4
	s.writeAt(off, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	scratch := make([]byte, 8)
	v := s.view(off, 8, scratch)
	if !bytes.Equal(v, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("cross-page view = %v", v)
	}
	// Single-page view of an unmaterialised page reads zeros.
	v = s.view(3*segPageSize+8, 8, scratch)
	for _, b := range v {
		if b != 0 {
			t.Fatal("view of unmaterialised page must be zero")
		}
	}
}

// clearRange must not materialise a page (the heap's Free relies on this),
// must zero real bytes on every page the range crosses, and must leave the
// bytes around it alone.
func TestSegStoreZeroByte(t *testing.T) {
	var s segStore
	s.clearRange(100, segPageSize)
	for _, pg := range s.pages {
		if pg != nil {
			t.Fatal("clearRange materialised a page")
		}
	}
	data := bytes.Repeat([]byte{0xAA}, int(2*segPageSize))
	s.writeAt(0, data)
	s.clearRange(100, segPageSize)
	got := make([]byte, len(data))
	s.readAt(0, got)
	for i, b := range got {
		cleared := i >= 100 && int64(i) < 100+segPageSize
		if cleared && b != 0 || !cleared && b != 0xAA {
			t.Fatalf("byte %d is %#x after clearRange(100, %d)", i, b, segPageSize)
		}
	}
}

// newZeroWorld returns a two-PE world closed when the test ends.
func newZeroWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(fabric.Stampede(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// expectZero fails unless PE pe reads n zero bytes at off.
func expectZero(t *testing.T, w *World, pe int, off, n int64) {
	t.Helper()
	got := make([]byte, n)
	for i := range got {
		got[i] = 0xEE // a canary the read must overwrite
	}
	w.Read(pe, off, got)
	if i := bytes.IndexFunc(got, func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("byte %d of [%d, %d) reads %#x, want 0", off+int64(i), off, off+n, got[i])
	}
}

// A bulk store of zeros onto pages that were never written stores nothing:
// no page is taken, and the range reads zero.
// So it is from a buffer of the caller's, which is scanned, and from the
// zero source, 4 MiB of it.
func TestSegStoreZeroPutOnFreshPagesStoresNothing(t *testing.T) {
	for _, src := range [][]byte{make([]byte, 1<<20), Zeros(4 << 20)} {
		w := newZeroWorld(t)
		const off = 100
		n := int64(len(src))
		w.Write(1, off, src, 5)
		if s := w.PageStats(); s.SegPages != 0 || s.DataPages != 0 {
			t.Fatalf("a %d KiB zero put materialised %v", n>>10, s)
		}
		expectZero(t, w, 1, 0, off+n+segPageSize)
	}
	if !ZeroSourceReadsZero(4 << 20) {
		t.Fatal("the zero source no longer reads zero")
	}
}

// A bulk store of zeros over bytes written earlier lands: on a page the world
// wrote, and on a page it took from a free list of pages full of 0xFF.
func TestSegStoreZeroPutOverWrittenBytesLands(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		if pooled {
			PreloadDirtyPages(4, 0, segPageSize)
		}
		w := newZeroWorld(t)
		if pooled {
			w.Write(1, segPageSize+100, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 0)
		} else {
			w.Write(1, 0, bytes.Repeat([]byte{0xAA}, int(3*segPageSize)), 0)
		}
		w.Write(1, 40, make([]byte, 3*segPageSize-80), 0)
		expectZero(t, w, 1, 40, 3*segPageSize-80)
	}
}

// Zero stores of at most tsTrackMaxBytes still record their timestamps, on
// a fresh page and across a page boundary, so a wait on a word they wrote
// adopts their visibleAt.
func TestSegStoreSmallZeroPutRecordsTimestamps(t *testing.T) {
	for _, c := range []struct{ off, n int64 }{{64, 8}, {64, tsTrackMaxBytes}, {segPageSize - 16, 64}} {
		w := newZeroWorld(t)
		const at = 500
		w.Write(1, c.off, make([]byte, c.n), at)
		var ts float64
		if err := w.Run(func(p *PE) {
			if p.ID == 1 {
				ts = p.WaitUntil(c.off+c.n-8, 8, func([]byte) bool { return true })
			}
		}); err != nil {
			t.Fatal(err)
		}
		if ts != at {
			t.Errorf("zero put of %d bytes at %d: wait adopted %v, want %v", c.n, c.off, ts, at)
		}
	}
}

// A bulk store of zeros that stores nothing still wakes a watch it overlaps,
// which adopts its visibleAt.
func TestSegStoreZeroBulkPutWakesWatch(t *testing.T) {
	w := newZeroWorld(t)
	const watched, at = 3 * segPageSize, 700
	var watching atomic.Bool
	var ts float64
	if err := w.Run(func(p *PE) {
		switch p.ID {
		case 0:
			for !watching.Load() {
				runtime.Gosched()
			}
			w.Write(1, watched-segPageSize, make([]byte, 2*segPageSize), at)
		case 1:
			calls := 0
			ts = p.WaitUntil(watched, 8, func([]byte) bool {
				calls++
				watching.Store(true)
				return calls > 1
			})
		}
	}); err != nil {
		t.Fatal(err)
	}
	if ts != at {
		t.Fatalf("woken wait adopted %v, want %v", ts, at)
	}
	if got := w.PageStats().SegPages; got != 0 {
		t.Fatalf("the zero put materialised %d pages", got)
	}
}

// zeroPieces are the small and vectored ways to store zeros onto PE 1 of w at
// off, visible at at: each stores pieces of at most tsTrackMaxBytes, so each
// records its timestamps, and none holds a non-zero byte.
var zeroPieces = []struct {
	name  string
	store func(w *World, off int64, at float64)
}{
	{"4-byte", func(w *World, off int64, at float64) { w.Write(1, off, Zeros(4), at) }},
	{"8-byte", func(w *World, off int64, at float64) { w.Write(1, off, make([]byte, 8), at) }},
	{"WriteV", func(w *World, off int64, at float64) { w.WriteV(1, off, 24, 4, Zeros(16*4), at) }},
	{"WriteRuns", func(w *World, off int64, at float64) {
		w.WriteRuns(1, off, []int64{0, 64, 4096, 8}, 16, make([]byte, 4*16), []float64{at, at, at, at})
	}},
}

// Small and vectored zero pieces onto fresh memory materialise the page
// records their timestamps need, but no bytes; a wait on a word they wrote
// adopts their visibleAt; and a later non-zero store to the same page reads
// back exactly, with the zeros around it.
func TestSegStoreZeroPiecesRecordWithoutBytes(t *testing.T) {
	for _, c := range zeroPieces {
		t.Run(c.name, func(t *testing.T) {
			PreloadDirtyPages(2, 0, segPageSize)
			w := newZeroWorld(t)
			const off, at = segPageSize + 200, 300
			c.store(w, off, at)
			if s := w.PageStats(); s.SegPages != 1 || s.DataPages != 0 || s.PackedRecords == 0 {
				t.Fatalf("zero pieces materialised %v, want one page record with packed timestamps and no bytes", s)
			}
			var ts float64
			if err := w.Run(func(p *PE) {
				if p.ID == 1 {
					ts = p.WaitUntil(off, 8, func([]byte) bool { return true })
				}
			}); err != nil {
				t.Fatal(err)
			}
			if ts != at {
				t.Errorf("wait on a zero piece's word adopted %v, want %v", ts, at)
			}
			expectZero(t, w, 1, 0, 3*segPageSize)
			w.Write(1, off+8, []byte{1, 2, 3, 4, 5, 6, 7, 8}, at+1)
			if s := w.PageStats(); s.SegPages != 1 || s.DataPages != 1 {
				t.Fatalf("a non-zero store onto the page materialised %v, want its bytes on the one record", s)
			}
			expectZero(t, w, 1, 0, off+8)
			if got := w.ReadUint64(1, off+8); got != 0x0807060504030201 {
				t.Errorf("non-zero store reads back %#x", got)
			}
			expectZero(t, w, 1, off+16, 2*segPageSize)
		})
	}
}

// The heap's Free over pages that hold only records materialises nothing,
// and over a page with bytes it zeroes them, so a later store onto the page
// reads back exactly with zeros around it.
func TestSegStoreFreeOfZeroPagesMaterialisesNothing(t *testing.T) {
	w := newZeroWorld(t)
	off, err := w.Alloc(3 * segPageSize)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3*segPageSize; i += tsBlockBytes {
		w.WriteUint64(1, off+i, 0, 1)
	}
	w.Write(1, off+segPageSize+64, []byte{9, 9, 9, 9}, 1)
	before := w.PageStats()
	if before.DataPages != 1 {
		t.Fatalf("before Free: %v, want the bytes of one page", before)
	}
	if err := w.Free(off); err != nil {
		t.Fatal(err)
	}
	if after := w.PageStats(); after != before {
		t.Fatalf("Free materialised memory: %v, before %v", after, before)
	}
	expectZero(t, w, 1, 0, off+3*segPageSize)
	w.Write(1, off+segPageSize+128, []byte{7}, 2)
	expectZero(t, w, 1, 0, off+segPageSize+128)
	expectZero(t, w, 1, off+segPageSize+129, 2*segPageSize)
}

// The DHT's shape at 64 images: each partition holds its MCS qnode word at
// offset 64 and 1.5 KiB of control, bucket and lock words at 1 MiB + 9280,
// two pages a megabyte apart with a granule of bytes each. Every one of the
// 128 pages takes a 4 KiB window, not its 16 KiB. A zero store into another
// granule of a page widens nothing; a non-zero one widens exactly that page,
// which keeps its bytes and reads zero around them.
func TestSparsePagesTakeAWindow(t *testing.T) {
	const pes, ctl = 64, 1<<20 + 9280
	w, err := NewWorld(fabric.Stampede(), pes)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	words := bytes.Repeat([]byte{0xA5}, 1544)
	for pe := range pes {
		w.WriteUint64(pe, 64, uint64(pe)+1, 1)
		w.Write(pe, ctl, words, 1)
	}
	want := PageStats{SegPages: 2 * pes, DataPages: 2 * pes, WindowPages: 2 * pes}
	layout := func(s PageStats) PageStats {
		return PageStats{SegPages: s.SegPages, DataPages: s.DataPages, WindowPages: s.WindowPages}
	}
	if got := layout(w.PageStats()); got != want {
		t.Fatalf("the DHT's shape took %+v, want %+v", got, want)
	}
	// Memory counts each buffer at its size: 128 windows and the qnode
	// words' packed timestamp records (the runs are past the tracked limit).
	s := w.PageStats()
	held := int64(2*pes*segWindowSize + pes*tsPackedBytes)
	if kib := fmt.Sprintf("(%d KiB,", held>>10); s.PackedRecords != pes || !strings.Contains(s.String(), kib) || s.FreshBytes > held {
		t.Errorf("PageStats %v: want %d packed records, %s and at most %d B of new memory", s, pes, kib, held)
	}
	const pe = 5
	w.WriteUint64(pe, 2*tsBlockBytes+8, 0, 2)
	w.Write(pe, 1<<20+64, make([]byte, 64), 2)
	if got := layout(w.PageStats()); got != want {
		t.Fatalf("zero stores outside the windows took %+v, want %+v", got, want)
	}
	w.WriteUint64(pe, 3*tsBlockBytes, 7, 3)
	want.WindowPages--
	if got := layout(w.PageStats()); got != want {
		t.Fatalf("a non-zero store in another granule took %+v, want %+v: exactly one page widened", got, want)
	}
	if got := w.ReadUint64(pe, 64); got != pe+1 {
		t.Errorf("the widened page's qnode word reads %d, want %d", got, pe+1)
	}
	if got := w.ReadUint64(pe, 3*tsBlockBytes); got != 7 {
		t.Errorf("the widening store reads back %d, want 7", got)
	}
	expectZero(t, w, pe, 72, 3*tsBlockBytes-72)
	expectZero(t, w, pe, 3*tsBlockBytes+8, segPageSize-3*tsBlockBytes-8)
	got := make([]byte, len(words)+16)
	w.Read(pe, ctl-8, got)
	if !bytes.Equal(got[8:8+len(words)], words) || !bytes.Equal(got[:8], make([]byte, 8)) || !bytes.Equal(got[8+len(words):], make([]byte, 8)) {
		t.Error("the control words do not read back with zeros around them")
	}
}
