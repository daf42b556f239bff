package caf

import (
	"fmt"
	"slices"

	"cafshmem/internal/pgas"
)

// Coarray is symmetric, remotely-accessible storage with the same local
// shape on every image — the runtime object behind both save and allocatable
// coarrays (§IV-A: "A save coarray will be automatically remotely accessible
// in OpenSHMEM, and we can implement the allocate and deallocate operations
// using shmalloc and shfree").
//
// Storage is column-major (Fortran order): dimension 1 is contiguous. All
// subscripts in this API are 0-based; image indices are 1-based like Fortran.
type Coarray[T pgas.Elem] struct {
	img *Image
	// shape, strides and codims share one buffer, geo up to rank 3
	// (coarrayGeometry).
	shape   []int
	strides []int // element strides, column-major: strides[0] == 1
	codims  []int // codimension extents; last one unbounded ("*")
	off     int64 // symmetric partition offset
	n       int   // total local elements
	es      int   // element size in bytes
	pencil  []T   // eachPencil's gather/scatter buffer, sized on first use
	geo     [2*3 + 1]int
}

// Allocate collectively creates a coarray with the given local shape — the
// runtime form of "allocate(x(shape)[*])". Every image must call it in the
// same order. The cobounds default to [*] (flat image indexing).
func Allocate[T pgas.Elem](img *Image, shape ...int) *Coarray[T] {
	c, _ := allocate[T](img, shape, false)
	return c
}

// AllocateStat is Allocate with Fortran 2018 failed-image semantics:
// "allocate(x(shape)[*], stat=...)". When images have failed, the collective
// allocation still completes identically on every survivor (so their heaps
// stay symmetric) and the condition is reported as StatFailedImage; the
// returned coarray is usable by the survivors. In a fault-free world it costs
// exactly Allocate.
func AllocateStat[T pgas.Elem](img *Image, shape ...int) (*Coarray[T], Stat) {
	img.pollFault()
	return allocate[T](img, shape, true)
}

func allocate[T pgas.Elem](img *Image, shape []int, stat bool) (*Coarray[T], Stat) {
	c := &Coarray[T]{img: img, es: pgas.SizeOf[T]()}
	c.shape, c.strides, c.codims, c.n = coarrayGeometry(c.geo[:0], shape)
	off, err := img.be.malloc(int64(c.n)*int64(c.es), stat)
	c.off = off
	return c, statFromErr(err)
}

// coarrayGeometry validates a local shape (none is one element) and lays out,
// in the storage of buf, an empty slice, a copy of it, its column-major
// element strides and the default cobounds [*]; it returns the three and the
// total element count. A shape of rank r takes 2r+1 ints: past buf's capacity
// they spill to the heap.
func coarrayGeometry(buf, shape []int) (sh, strides, codims []int, n int) {
	r := max(len(shape), 1)
	geo := slices.Grow(buf, 2*r+1)[:2*r+1]
	sh, strides, codims = geo[:r:r], geo[r:2*r:2*r], geo[2*r:]
	sh[0], codims[0] = 1, 0
	copy(sh, shape)
	n = 1
	for i, d := range sh {
		if d <= 0 {
			panic(fmt.Sprintf("caf: coarray extent %d in dimension %d must be positive", d, i+1))
		}
		strides[i] = n
		n *= d
	}
	return sh, strides, codims, n
}

// WithCodims declares the cobounds, e.g. x[2,*] -> WithCodims(2, 0). The last
// codimension may be 0 meaning "*" (unbounded). Returns the coarray for
// chaining.
func (c *Coarray[T]) WithCodims(codims ...int) *Coarray[T] {
	if len(codims) == 0 {
		panic("caf: need at least one codimension")
	}
	for i, d := range codims[:len(codims)-1] {
		if d <= 0 {
			panic(fmt.Sprintf("caf: codimension %d must be positive", i+1))
		}
	}
	c.codims = append([]int(nil), codims...)
	return c
}

// ImageIndex maps cosubscripts (1-based, like Fortran) to an image index
// (the image_index intrinsic). Returns 0 if the cosubscripts name no image.
func (c *Coarray[T]) ImageIndex(cosubs ...int) int {
	if len(cosubs) != len(c.codims) {
		return 0
	}
	idx := 0
	mult := 1
	for i, s := range cosubs {
		if s < 1 {
			return 0
		}
		if i < len(c.codims)-1 {
			if s > c.codims[i] {
				return 0
			}
			idx += (s - 1) * mult
			mult *= c.codims[i]
		} else {
			idx += (s - 1) * mult
		}
	}
	if idx >= c.img.NumImages() {
		return 0
	}
	return idx + 1
}

// CoSubscripts maps an image index (1-based) to cosubscripts — the
// this_image(coarray) intrinsic generalised to any image.
func (c *Coarray[T]) CoSubscripts(image int) []int {
	c.img.checkImage(image)
	rem := image - 1
	out := make([]int, len(c.codims))
	for i := 0; i < len(c.codims)-1; i++ {
		out[i] = rem%c.codims[i] + 1
		rem /= c.codims[i]
	}
	out[len(c.codims)-1] = rem + 1
	return out
}

// Shape returns the local shape.
func (c *Coarray[T]) Shape() []int { return append([]int(nil), c.shape...) }

// Len returns the number of local elements.
func (c *Coarray[T]) Len() int { return c.n }

// ElemSize returns the element size in bytes.
func (c *Coarray[T]) ElemSize() int { return c.es }

// Deallocate collectively releases the coarray ("deallocate" -> shfree).
func (c *Coarray[T]) Deallocate() {
	c.img.be.free(c.off, int64(c.n)*int64(c.es))
	c.off = -1
}

func (c *Coarray[T]) linear(idx []int) int64 {
	if len(idx) != len(c.shape) {
		panic(fmt.Sprintf("caf: %d subscripts for rank-%d coarray", len(idx), len(c.shape)))
	}
	var off int64
	for d, i := range idx {
		if i < 0 || i >= c.shape[d] {
			panic(fmt.Sprintf("caf: subscript %d out of extent %d in dimension %d", i, c.shape[d], d+1))
		}
		off += int64(i) * int64(c.strides[d])
	}
	return off
}

// byteOff returns the absolute partition offset of the element at idx.
func (c *Coarray[T]) byteOff(idx []int) int64 {
	return c.off + c.linear(idx)*int64(c.es)
}

// --- Local (non-co-indexed) access ---

// Set stores v into the local element at idx.
func (c *Coarray[T]) Set(v T, idx ...int) {
	c.img.local.StoreLocal(c.byteOff(idx), c.elemBytes(v))
}

// At loads the local element at idx.
func (c *Coarray[T]) At(idx ...int) T {
	b := c.img.word[:c.es]
	c.img.local.ReadLocal(c.byteOff(idx), b)
	return pgas.Load[T](b)
}

// SetSlice stores the whole local array from vals (column-major order).
func (c *Coarray[T]) SetSlice(vals []T) {
	if len(vals) != c.n {
		panic(fmt.Sprintf("caf: SetSlice of %d values into %d-element coarray", len(vals), c.n))
	}
	c.img.local.StoreLocal(c.off, pgas.Bytes(vals))
}

// Slice returns a copy of the whole local array (column-major order).
func (c *Coarray[T]) Slice() []T {
	out := make([]T, c.n)
	c.SliceInto(out)
	return out
}

// SliceInto copies the whole local array into dst (which must have exactly
// the coarray's length), avoiding the per-call allocation of Slice. Hot
// ghost-refresh loops use it so steady-state iterations allocate nothing.
func (c *Coarray[T]) SliceInto(dst []T) {
	if len(dst) != c.n {
		panic(fmt.Sprintf("caf: SliceInto of %d-element coarray into %d-element slice", c.n, len(dst)))
	}
	c.SliceRangeInto(0, dst)
}

// SliceRangeInto copies the len(dst) local elements from element from on
// (column-major order) into dst: SliceInto over part of the array, one ranged
// read, so a loop can read a large local array in chunks through a buffer of
// its own size.
func (c *Coarray[T]) SliceRangeInto(from int, dst []T) {
	if from < 0 || from > c.n-len(dst) {
		panic(fmt.Sprintf("caf: SliceRangeInto of elements [%d, %d) of %d-element coarray", from, from+len(dst), c.n))
	}
	c.img.local.ReadLocal(c.off+int64(from)*int64(c.es), pgas.Bytes(dst))
}

// Fill sets every local element to v.
func (c *Coarray[T]) Fill(v T) {
	vals := make([]T, c.n)
	for i := range vals {
		vals[i] = v
	}
	c.SetSlice(vals)
}

// WaitLocal blocks until the *local* element at idx satisfies "element cmp
// value", adopting the causal timestamp of the satisfying remote write —
// shmem_wait_until(ivar, cmp, value) on a coarray element. This is the
// building block for user-level point-to-point signalling with coarrays.
//
// The runtime spins on 64-bit words and compares them as signed integers, like
// shmem_long_wait_until, so only 8-byte element types are supported and the
// ordered comparisons (CmpGT/GE/LT/LE) only int64 — on a uint64 or float64
// coarray they would misorder values past 2^63 and negative floats, and panic
// instead. CmpEQ and CmpNE compare the stored bit patterns and work for every
// 8-byte type.
func (c *Coarray[T]) WaitLocal(cmp pgas.Cmp, value T, idx ...int) {
	if c.es != 8 {
		panic(fmt.Sprintf("caf: WaitLocal requires an 8-byte element type, have %d bytes", c.es))
	}
	if _, signed := any(value).(int64); !signed && cmp != pgas.CmpEQ && cmp != pgas.CmpNE {
		panic(fmt.Sprintf("caf: WaitLocal compares words as signed 64-bit integers: an ordered comparison requires int64 elements, have %T", value))
	}
	operand := pgas.Load[int64](c.elemBytes(value)) // the element's bits as the signed word the wait compares
	c.img.wait(c.byteOff(idx), cmp, operand)
}

// elemBytes stages one element's bytes in the image's control-word buffer —
// a single value has no slice of its own for pgas.Bytes to view, and one on
// this frame would escape through the backend interface. The result is
// valid until the image's next control-word operation.
func (c *Coarray[T]) elemBytes(v T) []byte {
	b := c.img.word[:c.es]
	pgas.Store(b, v)
	return b
}
