package caf

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// DynCoarray models a coarray of derived type with an allocatable component:
//
//	type t
//	    integer, allocatable :: data(:)
//	end type
//	type(t) :: obj[*]
//	allocate(obj%data(n))        ! n may differ between images
//	x = obj[j]%data(i)           ! remote access through the descriptor
//
// This is the paper's §IV-A non-symmetric remotely-accessible data: the
// descriptor (a packed RemoteRef plus the element count) lives in symmetric
// memory, while the payload is carved out of the pre-allocated non-symmetric
// buffer, so its offset differs between images. Remote access first fetches
// the target's descriptor, then addresses the payload through the packed
// reference — exactly how the runtime reaches qnodes in §IV-D.
type DynCoarray[T pgas.Elem] struct {
	img  *Image
	desc *Coarray[uint64] // [0] = RemoteRef to payload, [1] = element count
	es   int

	localOff int64 // payload offset on this image (0 = not allocated)
	localLen int
}

// AllocateDyn collectively creates the derived-type coarray (the symmetric
// descriptor). The component starts unallocated on every image.
func AllocateDyn[T pgas.Elem](img *Image) *DynCoarray[T] {
	d := &DynCoarray[T]{
		img:  img,
		desc: Allocate[uint64](img, 2),
		es:   pgas.SizeOf[T](),
	}
	img.SyncAll() // descriptor zero-initialised and visible everywhere
	return d
}

// AllocLocal allocates this image's component with n elements — the runtime
// form of "allocate(obj%data(n))". Unlike coarray allocation it is *not*
// collective: each image may allocate a different size, or not at all.
func (d *DynCoarray[T]) AllocLocal(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("caf: component allocation needs a positive size, got %d", n))
	}
	if d.localOff != 0 {
		panic("caf: component already allocated on this image (deallocate first)")
	}
	off := d.img.AllocNonSymmetric(int64(n) * int64(d.es))
	d.localOff = off
	d.localLen = n
	ref := PackRef(d.img.ThisImage(), off, 1)
	// Publish the descriptor in this image's symmetric slot. Plain local
	// stores: remote readers synchronise via sync constructs as usual.
	d.desc.SetSlice([]uint64{uint64(ref), uint64(n)})
}

// FreeLocal deallocates this image's component.
func (d *DynCoarray[T]) FreeLocal() {
	if d.localOff == 0 {
		panic("caf: component not allocated on this image")
	}
	d.img.FreeNonSymmetric(d.localOff, int64(d.localLen)*int64(d.es))
	d.desc.SetSlice([]uint64{0, 0})
	d.localOff, d.localLen = 0, 0
}

// Allocated reports whether this image's component is allocated.
func (d *DynCoarray[T]) Allocated() bool { return d.localOff != 0 }

// LocalLen returns this image's component length (0 if unallocated).
func (d *DynCoarray[T]) LocalLen() int { return d.localLen }

// SetLocal stores vals into this image's component starting at element lo.
func (d *DynCoarray[T]) SetLocal(lo int, vals []T) {
	d.checkLocal(lo, len(vals))
	p := d.img.local
	p.StoreLocal(d.localOff+int64(lo)*int64(d.es), pgas.Bytes(vals))
}

// LocalSlice returns a copy of this image's component.
func (d *DynCoarray[T]) LocalSlice() []T {
	if d.localOff == 0 {
		return nil
	}
	out := make([]T, d.localLen)
	d.img.local.ReadLocal(d.localOff, pgas.Bytes(out))
	return out
}

func (d *DynCoarray[T]) checkLocal(lo, n int) {
	if d.localOff == 0 {
		panic("caf: component not allocated on this image")
	}
	if lo < 0 || lo+n > d.localLen {
		panic(fmt.Sprintf("caf: component access [%d:%d) outside %d elements", lo, lo+n, d.localLen))
	}
}

// remoteDescriptor fetches image j's descriptor (one small get).
func (d *DynCoarray[T]) remoteDescriptor(j int) (RemoteRef, int) {
	d.img.checkImage(j)
	d.img.maybeQuiet()
	words := make([]uint64, 2)
	d.img.issue(d.img.xfer(true, j-1, d.desc.off, pgas.Bytes(words)))
	return RemoteRef(words[0]), int(words[1])
}

// RemoteLen returns the component length at image j (0 if unallocated) —
// the runtime form of "allocated(obj[j]%data)" plus "size(obj[j]%data)".
func (d *DynCoarray[T]) RemoteLen(j int) int {
	_, n := d.remoteDescriptor(j)
	return n
}

// Get reads n elements starting at lo from image j's component:
// "v = obj[j]%data(lo+1 : lo+n)".
func (d *DynCoarray[T]) Get(j int, lo, n int) []T {
	ref, rlen := d.remoteDescriptor(j)
	if ref.IsNil() {
		panic(fmt.Sprintf("caf: image %d's component is not allocated", j))
	}
	if lo < 0 || lo+n > rlen {
		panic(fmt.Sprintf("caf: remote component access [%d:%d) outside %d elements", lo, lo+n, rlen))
	}
	out := make([]T, n)
	d.img.issue(d.img.xfer(true, ref.Image()-1, ref.Offset()+int64(lo)*int64(d.es), pgas.Bytes(out)))
	return out
}

// Put writes vals into image j's component starting at lo:
// "obj[j]%data(lo+1 : lo+len) = vals".
func (d *DynCoarray[T]) Put(j int, lo int, vals []T) {
	ref, rlen := d.remoteDescriptor(j)
	if ref.IsNil() {
		panic(fmt.Sprintf("caf: image %d's component is not allocated", j))
	}
	if lo < 0 || lo+len(vals) > rlen {
		panic(fmt.Sprintf("caf: remote component access [%d:%d) outside %d elements", lo, lo+len(vals), rlen))
	}
	d.img.issue(d.img.xfer(false, ref.Image()-1, ref.Offset()+int64(lo)*int64(d.es), pgas.Bytes(vals)))
	d.img.maybeQuiet()
}
