package pgas

import (
	"bytes"
	"encoding/binary"
	"math"
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

// The oracle: the element-by-element codec that Bytes replaced, kept here to
// pin what the view must equal. It spells out the byte order the partitions
// use — the host's, which on the little-endian hosts every golden was
// recorded on is the little-endian order the old codec hard-wired.
var hostOrder = binary.NativeEndian

// oracleEncode returns the partition bytes of src, one element at a time.
func oracleEncode[T Elem](src []T) []byte {
	out := make([]byte, len(src)*SizeOf[T]())
	switch s := any(src).(type) {
	case []byte:
		copy(out, s)
	case []int32:
		for i, v := range s {
			hostOrder.PutUint32(out[4*i:], uint32(v))
		}
	case []int64:
		for i, v := range s {
			hostOrder.PutUint64(out[8*i:], uint64(v))
		}
	case []uint64:
		for i, v := range s {
			hostOrder.PutUint64(out[8*i:], v)
		}
	case []float32:
		for i, v := range s {
			hostOrder.PutUint32(out[4*i:], math.Float32bits(v))
		}
	case []float64:
		for i, v := range s {
			hostOrder.PutUint64(out[8*i:], math.Float64bits(v))
		}
	}
	return out
}

// oracleDecode fills dst from the partition bytes src, one element at a time.
func oracleDecode[T Elem](dst []T, src []byte) {
	switch d := any(dst).(type) {
	case []byte:
		copy(d, src)
	case []int32:
		for i := range d {
			d[i] = int32(hostOrder.Uint32(src[4*i:]))
		}
	case []int64:
		for i := range d {
			d[i] = int64(hostOrder.Uint64(src[8*i:]))
		}
	case []uint64:
		for i := range d {
			d[i] = hostOrder.Uint64(src[8*i:])
		}
	case []float32:
		for i := range d {
			d[i] = math.Float32frombits(hostOrder.Uint32(src[4*i:]))
		}
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(hostOrder.Uint64(src[8*i:]))
		}
	}
}

// checkView holds Bytes, Store and Load to the oracle on the elements whose
// partition bytes are data (any bit pattern: NaN payloads, -0, ...), viewed
// from element index skip on, so the view also starts inside an allocation.
// Values are compared through their oracle bytes, never with ==, which NaN
// would fail.
func checkView[T Elem](t *testing.T, data []byte, skip int) {
	t.Helper()
	es := SizeOf[T]()
	all := make([]T, len(data)/es)
	oracleDecode(all, data)
	s := all[min(skip, len(all)):]
	want := oracleEncode(s)

	// Put direction: the view is the bytes a transport copies.
	view := Bytes(s)
	if !bytes.Equal(view, want) {
		t.Fatalf("%T: view %x, oracle %x", s, view, want)
	}
	if cap(view) != len(view) {
		t.Fatalf("%T: view has cap %d beyond its len %d", s, cap(view), len(view))
	}
	// Get direction: a transport copying into the view fills the elements.
	back := make([]T, len(s))
	copy(Bytes(back), want)
	if got := oracleEncode(back); !bytes.Equal(got, want) {
		t.Fatalf("%T: copy into view gave %x, want %x", s, got, want)
	}
	if len(s) == 0 {
		return
	}
	// The view aliases s rather than copying it.
	view[0] ^= 0xff
	if bytes.Equal(oracleEncode(s[:1]), want[:es]) {
		t.Fatalf("%T: write through the view did not reach the slice", s)
	}
	view[0] ^= 0xff
	// One element: Store and Load are a copy over the view.
	var word [8]byte
	Store(word[:], s[0])
	if !bytes.Equal(word[:es], want[:es]) {
		t.Fatalf("%T: Store %x, oracle %x", s, word[:es], want[:es])
	}
	if got := oracleEncode([]T{Load[T](want)}); !bytes.Equal(got, want[:es]) {
		t.Fatalf("%T: Load gave %x, want %x", s, got, want[:es])
	}
}

func checkViewAllTypes(t *testing.T, data []byte, skip int) {
	t.Helper()
	checkView[byte](t, data, skip)
	checkView[int32](t, data, skip)
	checkView[int64](t, data, skip)
	checkView[uint64](t, data, skip)
	checkView[float32](t, data, skip)
	checkView[float64](t, data, skip)
}

// FuzzBytesView drives checkView over all six element types from raw
// partition bytes and a sub-slice start.
func FuzzBytesView(f *testing.F) {
	bits := func(words ...uint64) []byte {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		return b
	}
	f.Add([]byte(nil), uint8(0)) // empty slice
	f.Add([]byte{1, 2, 3}, uint8(1))
	f.Add(bits(math.Float64bits(math.Copysign(0, -1)), 0x8000000080000000), uint8(0)) // -0 as float64 and float32
	f.Add(bits(0x7ff8000000000001, 0x7ff0dead0000beef, 0xfff8000000000000), uint8(1)) // quiet and signalling NaN payloads
	f.Add(bits(0x7fc00001ffc00000, 0x7f800001_7fa5a5a5), uint8(3))                    // float32 NaN payloads, odd start
	f.Add(bits(0, 1, 1<<63, ^uint64(0), 0x0102030405060708), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, skip uint8) {
		checkViewAllTypes(t, data, int(skip))
	})
}

// roundtrip sends in through the view and back through the oracle, holding
// the view to the oracle on the way.
func roundtrip[T Elem](t *testing.T, in []T) []T {
	t.Helper()
	enc := Bytes(in)
	if len(enc) != len(in)*SizeOf[T]() {
		t.Fatalf("view length %d, want %d", len(enc), len(in)*SizeOf[T]())
	}
	if want := oracleEncode(in); !bytes.Equal(enc, want) {
		t.Fatalf("view %x, oracle %x", enc, want)
	}
	out := make([]T, len(in))
	oracleDecode(out, enc)
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

func TestStoreLoadOne(t *testing.T) {
	var b [8]byte
	Store(b[:], 3.75)
	if got := Load[float64](b[:]); got != 3.75 {
		t.Fatalf("got %v", got)
	}
	Store(b[:], int32(-7))
	if got := Load[int32](b[:]); got != -7 {
		t.Fatalf("got %v", got)
	}
}

// The typed view and the word accessors describe one memory: a word written
// through WriteUint64 or an atomic reads back through a typed view, and the
// other way round.
func TestTypedViewAgreesWithWordAccessors(t *testing.T) {
	w := testWorld(t, 1)
	vals := []int64{-2, 1 << 40}
	w.Write(0, 0, Bytes(vals), 0)
	if got := w.ReadUint64(0, 8); got != 1<<40 {
		t.Fatalf("ReadUint64 of a typed store: %d", got)
	}
	if old := w.RMW64(0, 0, OpAdd, 5, 0); int64(old) != -2 {
		t.Fatalf("RMW64 saw %d, want -2", int64(old))
	}
	w.WriteUint64(0, 8, 77, 0)
	w.Read(0, 0, Bytes(vals))
	if vals[0] != 3 || vals[1] != 77 {
		t.Fatalf("typed load of word stores: %v", vals)
	}
}
