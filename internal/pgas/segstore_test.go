package pgas

import (
	"bytes"
	"math/rand"
	"runtime"
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
	s.ensure(0, int64(modelLen))
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

func TestSegStoreReadsBeyondExtentAreZero(t *testing.T) {
	var s segStore
	s.ensure(0, 10)
	s.writeAt(0, []byte{1, 2, 3})
	got := make([]byte, 16)
	for i := range got {
		got[i] = 0xFF
	}
	if n := s.readAt(0, got); n != 10 {
		t.Fatalf("readAt within extent = %d, want 10", n)
	}
	want := []byte{1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("readAt = %v, want %v", got, want)
	}
	if n := s.readAt(100, got); n != 0 {
		t.Fatalf("readAt past extent = %d, want 0", n)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("readAt past extent must zero the destination")
		}
	}
}

func TestSegStoreViewCrossingPages(t *testing.T) {
	var s segStore
	s.ensure(0, 2*segPageSize)
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
	s.ensure(0, 3*segPageSize)
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
// no page is taken, the extent still grows over the range, and it reads zero.
func TestSegStoreZeroPutOnFreshPagesStoresNothing(t *testing.T) {
	w := newZeroWorld(t)
	const off, n = 100, 1 << 20
	before := w.PageStats().SegPages
	w.Write(1, off, make([]byte, n), 5)
	if got := w.PageStats().SegPages; got != before {
		t.Fatalf("a 1 MiB zero put materialised %d pages", got-before)
	}
	if got := w.pes[1].seg.length; got != off+n {
		t.Fatalf("extent after the zero put = %d, want %d", got, off+n)
	}
	expectZero(t, w, 1, 0, off+n+segPageSize)
}

// A bulk store of zeros over bytes written earlier lands: on a page the world
// wrote, and on a page it took from a pool of pages full of 0xFF.
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
