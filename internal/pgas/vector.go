package pgas

import (
	"math"
	"math/bits"
)

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
	checkSpan("WriteV", off, int64(nelems), strideBytes, es)
	if w.stateOf(target) == stateFailed {
		return
	}
	p := w.part(target)
	p.mu.Lock()
	defer p.unlockStore(true)
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
	checkSpan("ReadV", off, int64(nelems), strideBytes, es)
	p := w.part(target)
	p.mu.Lock()
	defer p.mu.Unlock()
	for k := 0; k < nelems; k++ {
		o := off + int64(k)*strideBytes
		p.seg.readAt(o, dst[int64(k)*es:int64(k+1)*es])
	}
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
	lo, hi := spanOf(base, offs, 1, 0, int64(runBytes))
	w.writeRuns(target, lo, hi, base, offs, runBytes, src, visAt)
}

// writeRuns is WriteRuns on well-formed runs whose span [lo, hi) is known. The
// issue core lands a Runs op through it with the span its library's check
// found (RMA.Span), so an op's offsets are scanned once.
func (w *World) writeRuns(target int, lo, hi, base int64, offs []int64, runBytes int, src []byte, visAt []float64) {
	checkRange("WriteRuns", lo, hi-lo)
	rb := int64(runBytes)
	if w.stateOf(target) == stateFailed {
		return
	}
	p := w.part(target)
	p.mu.Lock()
	defer p.unlockStore(true)
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
}

// readRuns gathers len(offs) equal-length runs of runBytes bytes, spanning
// [lo, hi), from the target PE's partition (run i at byte offset
// base+offs[i]) into dst densely: like Read, bytes never written read as zero
// and nothing is materialised. The issue core fetches a Runs get through it
// with the span its library's check found (RMA.Span), as writeRuns lands a
// put.
func (w *World) readRuns(target int, lo, hi, base int64, offs []int64, runBytes int, dst []byte) {
	checkRange("ReadRuns", lo, hi-lo)
	rb := int64(runBytes)
	p := w.part(target)
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, o := range offs {
		p.seg.readAt(base+o, dst[int64(i)*rb:int64(i+1)*rb])
	}
}

// spanOf returns the bytes [lo, hi) a vectored operand spans: n elements of
// unit bytes at byte stride from base, from the first to the end of the last;
// or, given offs, runs of unit bytes at base+offs[i], from the lowest to the
// end of the highest. n (or len(offs)) is at least 1 and stride is not
// negative. The sums saturate where int64 would wrap, so an operand that no
// partition holds spans past MaxSegmentBytes, where checkRange refuses it.
func spanOf(base int64, offs []int64, n, stride, unit int64) (lo, hi int64) {
	lo, hi = base, addSat(base, mulSat(n-1, stride))
	if offs != nil {
		mn, mx := minMax(offs)
		lo, hi = addSat(base, mn), addSat(base, mx)
	}
	return lo, addSat(hi, unit)
}

// minMax returns the least and greatest of offs, which is not empty, in one
// pass.
func minMax(offs []int64) (mn, mx int64) {
	mn, mx = offs[0], offs[0]
	for _, o := range offs[1:] {
		mn, mx = min(mn, o), max(mx, o)
	}
	return mn, mx
}

// checkSpan is checkRange over a strided operand's spanOf: the check WriteV
// and ReadV make before they take a lock, as writeRuns and readRuns check the
// span of their runs. hi >= lo, so hi-lo cannot wrap once lo is known not to
// be negative.
func checkSpan(what string, base, n, stride, unit int64) {
	lo, hi := spanOf(base, nil, n, stride, unit)
	checkRange(what, lo, hi-lo)
}

// addSat is a+b, held at the int64 bound it would wrap past.
func addSat(a, b int64) int64 {
	if s := a + b; (s > a) == (b > 0) {
		return s
	} else if b > 0 {
		return math.MaxInt64
	}
	return math.MinInt64
}

// mulSat is a*b for a, b >= 0, held at MaxInt64 where it would wrap.
func mulSat(a, b int64) int64 {
	if hi, lo := bits.Mul64(uint64(a), uint64(b)); hi == 0 && lo <= math.MaxInt64 {
		return int64(lo)
	}
	return math.MaxInt64
}
