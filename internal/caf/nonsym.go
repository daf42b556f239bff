package caf

import "fmt"

// nsAlloc manages the pre-allocated buffer for non-symmetric,
// remotely-accessible data (§IV-A: "we shmalloc a buffer of equal size on
// all PEs at the beginning of the program, and explicitly manage
// non-symmetric, but remotely accessible, data allocations out of this
// buffer"). Unlike the symmetric heap, each image allocates independently:
// offsets differ between images, which is why remote references to objects
// in this buffer must carry (image, offset) pairs — the packed pointers of
// §IV-D.
//
// The allocator is purely image-local, so no synchronisation is involved. It
// is a field of its Image and never moves, so its free list starts in spans:
// an allocator costs the heap nothing until the list holds more than two
// spans. Two, because a release ahead of the one free span (a lock's qnode,
// say) briefly makes two before they coalesce.
type nsAlloc struct {
	base  int64
	size  int64
	free  []nsSpan
	spans [2]nsSpan
}

type nsSpan struct{ off, size int64 }

const (
	nsAlign = 8
	// nonSymBytes sizes every image's buffer (§IV-A/D: qnodes, derived-type
	// components). Partition pages materialise on first write, so what the
	// image never allocates costs no host memory.
	nonSymBytes = 1 << 20
)

// init makes a the allocator of the size bytes at base, all of them free.
func (a *nsAlloc) init(base, size int64) {
	a.base, a.size = base, size
	a.spans[0] = nsSpan{off: base, size: size}
	a.free = a.spans[:1]
}

// alloc reserves n bytes, returning the absolute partition offset.
func (a *nsAlloc) alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("caf: non-symmetric allocation size must be positive, got %d", n)
	}
	sz := (n + nsAlign - 1) &^ (nsAlign - 1)
	for i, s := range a.free {
		if s.size >= sz {
			off := s.off
			if s.size == sz {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i] = nsSpan{s.off + sz, s.size - sz}
			}
			return off, nil
		}
	}
	return 0, fmt.Errorf("caf: non-symmetric buffer exhausted (%d bytes requested, %d-byte buffer)", n, a.size)
}

// release returns a span. Callers pass the size they allocated.
func (a *nsAlloc) release(off, n int64) {
	sz := (n + nsAlign - 1) &^ (nsAlign - 1)
	i := 0
	for i < len(a.free) && a.free[i].off < off {
		i++
	}
	a.free = append(a.free, nsSpan{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = nsSpan{off, sz}
	if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// AllocNonSymmetric reserves n bytes of this image's remotely-accessible
// non-symmetric buffer — the runtime service behind allocatable components
// of coarrays of derived type. The returned offset is local to this image;
// publish it to other images as a packed RemoteRef.
func (img *Image) AllocNonSymmetric(n int64) int64 {
	off, err := img.nonsym.alloc(n)
	if err != nil {
		panic(err)
	}
	return off
}

// FreeNonSymmetric releases a non-symmetric allocation of size n at off.
func (img *Image) FreeNonSymmetric(off, n int64) {
	img.nonsym.release(off, n)
}
