package pgas

import "unsafe"

// Elem is the set of element types that may live in remotely-accessible
// memory. Partitions are raw bytes in the host's byte order, so a typed slice
// needs no codec: Bytes views it as the bytes it already is, and every layer
// hands that view to the transport, which copies it into (or out of) the
// partition. Word accessors elsewhere use binary.NativeEndian and therefore
// agree with the view on any host.
type Elem interface {
	byte | int32 | int64 | uint64 | float32 | float64
}

// SizeOf returns the size in bytes of one element of type T. It folds to a
// constant in every instantiation.
func SizeOf[T Elem]() int { return int(unsafe.Sizeof(*new(T))) }

// Bytes returns the memory of s as a byte slice of length len(s)*SizeOf[T]()
// that aliases s: writes through either are seen by the other.
//
// This is the module's only use of unsafe (TestStructure's unsafe row
// enforces that). It is sound because Elem is a closed set of fixed-size
// types without pointers or padding, so every byte of s is initialised data
// the garbage collector need not scan, and a []byte has no alignment
// requirement. The reverse view, []byte to []T, could be misaligned and is
// never needed: a get copies into the Bytes view of its typed destination.
func Bytes[T Elem](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*SizeOf[T]())
}

// Store copies the bytes of v to the front of dst.
func Store[T Elem](dst []byte, v T) {
	one := [1]T{v}
	copy(dst, Bytes(one[:]))
}

// Load returns the element whose bytes are at the front of src.
func Load[T Elem](src []byte) T {
	var one [1]T
	copy(Bytes(one[:]), src)
	return one[0]
}
