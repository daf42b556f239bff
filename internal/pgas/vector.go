package pgas

import "fmt"

// Vectored one-sided access. A strided or multi-run transfer through the
// element-wise Write/Read costs one lock acquisition, one watch scan, and one
// broadcast per piece; these entry points acquire the target partition's lock
// once per *transfer* and coalesce the wakeup, while recording per-piece
// visibility timestamps exactly as the equivalent sequence of element-wise
// calls would — virtual-time results are bit-identical by construction.

// WriteV scatters len(src)/elemSize dense source elements into the target
// PE's partition at byte stride strideBytes starting at off, all visible at
// visibleAt. Elements land in ascending index order, so overlapping
// placements (strideBytes < elemSize, including 0) resolve exactly as the
// equivalent sequence of Write calls. Writes to a failed PE's partition are
// dropped, like Write.
func (w *World) WriteV(target int, off, strideBytes int64, elemSize int, src []byte, visibleAt float64) {
	if elemSize <= 0 || len(src)%elemSize != 0 {
		panic("pgas: WriteV source not a whole number of elements")
	}
	if strideBytes < 0 {
		panic("pgas: WriteV negative stride")
	}
	nelems := len(src) / elemSize
	if nelems == 0 {
		return
	}
	es := int64(elemSize)
	checkRange("WriteV", off, int64(nelems-1)*strideBytes+es)
	if w.stateOf(target) == stateFailed {
		return
	}
	p := w.part(target)
	p.mu.Lock()
	matched := false
	c := p.seg.zeroCursor(src)
	for o := off; len(src) > 0; o, src = o+strideBytes, src[es:] {
		c.put(o, src[:es], visibleAt)
		if p.raiseWatch(o, es, visibleAt) {
			matched = true
		}
	}
	if matched {
		p.wakeLocked()
	}
	p.unlockStore(true)
}

// ReadV gathers len(dst)/elemSize elements from the target PE's partition at
// byte stride strideBytes starting at off into dst densely. Like Read, bytes
// never written read as zero and nothing is materialised.
func (w *World) ReadV(target int, off, strideBytes int64, elemSize int, dst []byte) {
	if elemSize <= 0 || len(dst)%elemSize != 0 {
		panic("pgas: ReadV destination not a whole number of elements")
	}
	if strideBytes < 0 {
		panic("pgas: ReadV negative stride")
	}
	nelems := len(dst) / elemSize
	if nelems == 0 {
		return
	}
	es := int64(elemSize)
	checkRange("ReadV", off, int64(nelems-1)*strideBytes+es)
	p := w.part(target)
	p.mu.Lock()
	for k := 0; k < nelems; k++ {
		o := off + int64(k)*strideBytes
		p.seg.readAt(o, dst[int64(k)*es:int64(k+1)*es])
	}
	p.mu.Unlock()
}

// WriteRuns copies len(offs) equal-length runs of runBytes bytes, taken
// densely from src, into the target PE's partition: run i lands at byte
// offset base+offs[i] and becomes visible at visAt[i]. Runs land in slice
// order, so overlapping runs resolve exactly as the equivalent sequence of
// Write calls. This is the substrate for vectored multi-run puts whose cost
// model assigns each run its own visibility time.
func (w *World) WriteRuns(target int, base int64, offs []int64, runBytes int, src []byte, visAt []float64) {
	if runBytes <= 0 || len(src) != len(offs)*runBytes {
		panic("pgas: WriteRuns source does not match runs")
	}
	if len(visAt) != len(offs) {
		panic("pgas: WriteRuns visibility times do not match runs")
	}
	if len(offs) == 0 {
		return
	}
	if w.stateOf(target) == stateFailed {
		return
	}
	p := w.part(target)
	rb := int64(runBytes)
	first, end := base+offs[0], int64(0)
	for _, o := range offs {
		first, end = min(first, base+o), max(end, base+o+rb)
	}
	checkRange("WriteRuns", first, end-first)
	p.mu.Lock()
	matched := false
	c := p.seg.zeroCursor(src)
	for i, o := range offs {
		o += base
		c.put(o, src[int64(i)*rb:int64(i+1)*rb], visAt[i])
		if p.raiseWatch(o, rb, visAt[i]) {
			matched = true
		}
	}
	if matched {
		p.wakeLocked()
	}
	p.unlockStore(true)
}

// ReadRuns gathers len(offs) equal-length runs of runBytes bytes from the
// target PE's partition (run i at byte offset base+offs[i]) into dst densely:
// like Read, bytes never written read as zero and nothing is materialised.
func (w *World) ReadRuns(target int, base int64, offs []int64, runBytes int, dst []byte) {
	if runBytes <= 0 || len(dst) != len(offs)*runBytes {
		panic("pgas: ReadRuns destination does not match runs")
	}
	if len(offs) == 0 {
		return
	}
	rb := int64(runBytes)
	p := w.part(target)
	p.mu.Lock()
	for i, o := range offs {
		o += base
		if o < 0 || o+rb > MaxSegmentBytes {
			p.mu.Unlock()
			panic(fmt.Sprintf("pgas: ReadRuns run at offset %d out of range", o))
		}
		p.seg.readAt(o, dst[int64(i)*rb:int64(i+1)*rb])
	}
	p.mu.Unlock()
}
