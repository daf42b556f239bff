package pgas

import (
	"encoding/binary"
	"math"
)

// Elem is the set of element types that may live in remotely-accessible
// memory. Partitions are raw bytes; these helpers give the library layers a
// typed view with explicit little-endian encoding, which keeps the whole
// repository free of unsafe pointer reinterpretation.
type Elem interface {
	byte | int32 | int64 | uint64 | float32 | float64
}

// SizeOf returns the encoded size in bytes of one element of type T.
func SizeOf[T Elem]() int {
	var v T
	switch any(v).(type) {
	case byte:
		return 1
	case int32, float32:
		return 4
	default:
		return 8
	}
}

// EncodeSlice appends the little-endian encoding of src to dst and returns
// the extended buffer. The buffer is grown to its final size in one step, so
// encoding a large slice into a nil (or too-small) dst costs a single
// allocation rather than a geometric append chain.
func EncodeSlice[T Elem](dst []byte, src []T) []byte {
	n := len(dst)
	need := len(src) * SizeOf[T]()
	if cap(dst)-n < need {
		grown := make([]byte, n, n+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:n+need]
	out := dst[n:]
	switch s := any(src).(type) {
	case []int32:
		for i, v := range s {
			binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
		}
	case []int64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
		}
	case []uint64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(out[8*i:], v)
		}
	case []float32:
		putFloat32s(out, s)
	case []float64:
		putFloat64s(out, s)
	case []byte:
		copy(out, s)
	default:
		// Unreachable (Elem is a closed set). The message must not mention
		// src: formatting it would make every caller's slice escape.
		panic("pgas: unsupported element type")
	}
	return dst
}

// DecodeSlice decodes len(dst) elements from the little-endian buffer src.
func DecodeSlice[T Elem](dst []T, src []byte) {
	switch d := any(dst).(type) {
	case []byte:
		copy(d, src)
	case []int32:
		for i := range d {
			d[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
		}
	case []int64:
		for i := range d {
			d[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
	case []uint64:
		for i := range d {
			d[i] = binary.LittleEndian.Uint64(src[8*i:])
		}
	case []float32:
		getFloat32s(d, src)
	case []float64:
		getFloat64s(d, src)
	default:
		panic("pgas: unsupported element type") // must not mention dst, as above
	}
}

// The floating-point loops are plain functions kept out of line. A generic
// body is compiled in the package that instantiates it — for EncodeSlice and
// DecodeSlice that is every caller's — and there math.Float64bits and its
// siblings are not the one-instruction intrinsics they are here but calls,
// with the loop's registers spilled around each: the 8 KiB put that is the
// whole of a contiguous-put benchmark spent most of its time that way.

//go:noinline
func putFloat32s(out []byte, s []float32) {
	for _, v := range s {
		binary.LittleEndian.PutUint32(out, math.Float32bits(v))
		out = out[4:]
	}
}

//go:noinline
func putFloat64s(out []byte, s []float64) {
	for _, v := range s {
		binary.LittleEndian.PutUint64(out, math.Float64bits(v))
		out = out[8:]
	}
}

//go:noinline
func getFloat32s(d []float32, src []byte) {
	for i := range d {
		d[i] = math.Float32frombits(binary.LittleEndian.Uint32(src))
		src = src[4:]
	}
}

//go:noinline
func getFloat64s(d []float64, src []byte) {
	for i := range d {
		d[i] = math.Float64frombits(binary.LittleEndian.Uint64(src))
		src = src[8:]
	}
}

// EncodeOne encodes a single element.
func EncodeOne[T Elem](v T) []byte {
	return EncodeSlice[T](nil, []T{v})
}

// DecodeOne decodes a single element from the front of src.
func DecodeOne[T Elem](src []byte) T {
	var out [1]T
	DecodeSlice[T](out[:], src)
	return out[0]
}
