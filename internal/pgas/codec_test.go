package pgas

import (
	"testing"
	"testing/quick"
)

func TestSizeOf(t *testing.T) {
	if SizeOf[byte]() != 1 {
		t.Fatal("byte size")
	}
	if SizeOf[int32]() != 4 || SizeOf[float32]() != 4 {
		t.Fatal("4-byte sizes")
	}
	if SizeOf[int64]() != 8 || SizeOf[uint64]() != 8 || SizeOf[float64]() != 8 {
		t.Fatal("8-byte sizes")
	}
}

func roundtrip[T Elem](t *testing.T, in []T) []T {
	t.Helper()
	enc := EncodeSlice[T](nil, in)
	if len(enc) != len(in)*SizeOf[T]() {
		t.Fatalf("encoded length %d, want %d", len(enc), len(in)*SizeOf[T]())
	}
	out := make([]T, len(in))
	DecodeSlice(out, enc)
	return out
}

func TestRoundtripFloat64(t *testing.T) {
	f := func(in []float64) bool {
		out := roundtrip(t, in)
		for i := range in {
			if in[i] != out[i] && !(in[i] != in[i] && out[i] != out[i]) { // NaN-safe
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundtripInt64(t *testing.T) {
	f := func(in []int64) bool {
		out := roundtrip(t, in)
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundtripInt32(t *testing.T) {
	f := func(in []int32) bool {
		out := roundtrip(t, in)
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundtripFloat32(t *testing.T) {
	in := []float32{0, 1.5, -2.25, 3.14159e10, -1e-20}
	out := roundtrip(t, in)
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("index %d: %v != %v", i, in[i], out[i])
		}
	}
}

func TestRoundtripBytes(t *testing.T) {
	in := []byte{0, 1, 127, 128, 255}
	out := roundtrip(t, in)
	for i := range in {
		if in[i] != out[i] {
			t.Fatal("byte roundtrip failed")
		}
	}
}

func TestRoundtripUint64(t *testing.T) {
	in := []uint64{0, 1, 1 << 63, ^uint64(0)}
	out := roundtrip(t, in)
	for i := range in {
		if in[i] != out[i] {
			t.Fatal("uint64 roundtrip failed")
		}
	}
}

func TestEncodeDecodeOne(t *testing.T) {
	b := EncodeOne(3.75)
	if got := DecodeOne[float64](b); got != 3.75 {
		t.Fatalf("got %v", got)
	}
	if got := DecodeOne[int32](EncodeOne(int32(-7))); got != -7 {
		t.Fatalf("got %v", got)
	}
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte{9, 9}
	enc := EncodeSlice(prefix, []int32{1})
	if len(enc) != 6 || enc[0] != 9 || enc[1] != 9 {
		t.Fatalf("EncodeSlice should append: %v", enc)
	}
}

// EncodeSlice grows a too-small dst to the exact final size in one step for
// every element type — bytes included, which once went through append and
// over-allocated geometrically.
func TestEncodeGrowsExactly(t *testing.T) {
	prefix := make([]byte, 3, 5)
	if enc := EncodeSlice(prefix, make([]byte, 1000)); len(enc) != 1003 || cap(enc) != 1003 {
		t.Fatalf("bytes: len %d cap %d, want 1003 1003", len(enc), cap(enc))
	}
	if enc := EncodeSlice(prefix, make([]float64, 125)); len(enc) != 1003 || cap(enc) != 1003 {
		t.Fatalf("float64: len %d cap %d, want 1003 1003", len(enc), cap(enc))
	}
	// A dst with room is used in place.
	roomy := make([]byte, 3, 2048)
	if enc := EncodeSlice(roomy, []byte{7}); &enc[0] != &roomy[0] || enc[3] != 7 {
		t.Fatal("EncodeSlice reallocated a dst that had room")
	}
}
