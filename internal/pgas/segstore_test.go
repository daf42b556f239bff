package pgas

import (
	"bytes"
	"math/rand"
	"testing"
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
