package caf

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// Co-indexed remote memory access. Put implements "x(sec)[j] = vals", Get
// implements "vals = x(sec)[j]". Following the translation rule of §IV-B,
// the runtime issues a quiet after every put and before every get (unless
// the DeferredQuiet ablation option is set), restoring CAF's same-image
// ordering guarantees on top of OpenSHMEM's weaker completion semantics.
//
// Multi-dimensional sections are decomposed by the configured StridedAlgo:
//
//   - naive: one contiguous put/get per maximal contiguous run (one per
//     element when dimension 1 is strided) — §IV-C's baseline;
//   - 1dim: one 1-D strided library call per pencil along dimension 1;
//   - 2dim: the paper's 2dim_strided — base dimension chosen as the one with
//     more strided elements among the first two dimensions, trading call
//     count against data locality;
//   - vendor: Cray CAF's strided path (dimension-1 hardware strided calls
//     with the vendor runtime's per-element costs).

// Put writes vals (dense, column-major section order) into section sec of
// the coarray on image j (1-based).
func (c *Coarray[T]) Put(j int, sec Section, vals []T) { c.put(j, sec, vals, false) }

// put is Put (blocking) and PutAsync (nbi). On a transport without
// nonblocking puts both are the blocking §IV-B translation.
func (c *Coarray[T]) put(j int, sec Section, vals []T, nbi bool) {
	if _, quiet := c.section(false, nbi, j, sec, vals); quiet {
		c.img.maybeQuiet()
	}
}

// Get reads section sec of the coarray on image j (1-based), returning the
// elements dense in column-major section order.
func (c *Coarray[T]) Get(j int, sec Section) []T {
	out, _ := c.section(true, false, j, sec, nil)
	return out
}

// PutElem writes a single element: x(idx)[j] = v.
func (c *Coarray[T]) PutElem(j int, v T, idx ...int) {
	img := c.img
	img.pollFault()
	img.checkImage(j)
	op := img.xfer(false, j-1, c.byteOff(idx), c.elemBytes(v))
	op.direct = img.opts.IntraNodeDirect
	if !img.issue(op) {
		img.maybeQuiet() // a direct store completes immediately: no quiet needed
	}
}

// GetElem reads a single element: v = x(idx)[j].
func (c *Coarray[T]) GetElem(j int, idx ...int) T {
	img := c.img
	img.pollFault()
	img.checkImage(j)
	img.maybeQuiet() // pending puts are ordered before the get, or the direct load
	b := img.word[:c.es]
	op := img.xfer(true, j-1, c.byteOff(idx), b)
	op.direct = img.opts.IntraNodeDirect
	img.issue(op)
	return pgas.Load[T](b)
}

// PutFull writes the entire local array of image j: x(:,...,:)[j] = vals.
func (c *Coarray[T]) PutFull(j int, vals []T) { c.Put(j, All(c.shape...), vals) }

// GetFull reads the entire local array of image j.
func (c *Coarray[T]) GetFull(j int) []T { return c.Get(j, All(c.shape...)) }

// lower is the one pass every section statement takes over its section: it
// checks sec against the coarray's shape, first error first, and derives on
// the way the element count n, the leading contiguous run — dimension d merges
// into it if its step is 1 and every earlier dimension is covered in full; a
// strided dimension 1 leaves no run, runDims 0 — and the absolute byte offset
// low of the section's low corner.
func (c *Coarray[T]) lower(sec Section) (n, runDims, runElems int, low int64, err error) {
	if len(sec) != len(c.shape) {
		return 0, 0, 0, 0, fmt.Errorf("caf: section rank %d does not match array rank %d", len(sec), len(c.shape))
	}
	n, runElems = 1, 1
	merging := true
	for d, r := range sec {
		extent := c.shape[d]
		if r.Step < 1 || r.Lo < 0 || r.Hi >= extent || r.Hi < r.Lo {
			return 0, 0, 0, 0, rangeErr(d, r, extent)
		}
		cnt := r.Count()
		n *= cnt
		low += int64(r.Lo) * int64(c.strides[d])
		if merging = merging && r.Step == 1; merging {
			runElems *= cnt
			runDims = d + 1
			merging = r.Lo == 0 && cnt == extent
		}
	}
	return n, runDims, runElems, c.off + low*int64(c.es), nil
}

// rangeErr says what is wrong with r as dimension d (0-based) of a section of
// an array of that extent.
func rangeErr(d int, r Range, extent int) error {
	switch {
	case r.Step < 1:
		return fmt.Errorf("caf: dimension %d: step %d must be >= 1", d+1, r.Step)
	case r.Lo < 0 || r.Hi >= extent:
		return fmt.Errorf("caf: dimension %d: range %d:%d outside extent %d", d+1, r.Lo, r.Hi, extent)
	}
	return fmt.Errorf("caf: dimension %d: empty range %d:%d:%d", d+1, r.Lo, r.Hi, r.Step)
}

// baseDim picks the strided-call dimension for the configured algorithm.
func (c *Coarray[T]) baseDim(sec Section) int {
	switch c.img.opts.Strided {
	case Strided2Dim:
		// §IV-C: consider only the first two dimensions (locality trade-off)
		// and pick the one with more strided elements.
		if len(sec) >= 2 && sec[1].Count() > sec[0].Count() {
			return 1
		}
		return 0
	case StridedBestDim:
		// Extension: minimise the call count outright, whatever the memory
		// stride of the chosen dimension.
		best := 0
		for d := 1; d < len(sec); d++ {
			if sec[d].Count() > sec[best].Count() {
				best = d
			}
		}
		return best
	default: // 1dim, vendor
		return 0
	}
}

// section is every section statement: the transfer of section sec between the
// coarray on image j (1-based) and vals, the section's elements dense in
// column-major order — written for a put; for a get made here, behind the
// §IV-B quiet, filled and returned. It reports whether a put still owes the
// §IV-B quiet: not when it was left in flight — nbi, and a nonblocking put on a
// transport without Caps.NBI is a blocking one, decided here once for the whole
// section — nor when a direct store served it, which is complete at return.
//
// Every transfer, blocking or not, hands the funnel vals' own bytes
// (pgas.Bytes): the issue core lands a put in the target partition before it
// returns, nonblocking ones included, so one memmove is all a put costs the
// host and the caller may reuse vals at once — PutAsync's snapshot-at-issue
// contract is kept by the landing itself (pgas/buffer.go). What a nonblocking
// put leaves open is its virtual completion, booked on the backend's streams.
func (c *Coarray[T]) section(get, nbi bool, j int, sec Section, vals []T) (_ []T, quiet bool) {
	img := c.img
	img.pollFault()
	img.checkImage(j)
	n, runDims, runElems, low, err := c.lower(sec)
	if err != nil {
		panic(err)
	}
	if get {
		img.maybeQuiet() // §IV-B: quiet before get
		vals = make([]T, n)
	} else if n != len(vals) {
		panic(fmt.Sprintf("caf: section selects %d elements but %d values given", n, len(vals)))
	}
	nbi = nbi && img.caps.NBI

	// Shared by all algorithms: a fully contiguous section is a single
	// transfer regardless of strategy — or a direct load/store when the
	// target shares the node and §VII's IntraNodeDirect is enabled.
	if runDims == len(sec) {
		op := img.xfer(get, j-1, low, pgas.Bytes(vals))
		op.nbi, op.direct = nbi, img.opts.IntraNodeDirect && !nbi
		return vals, !img.issue(op) && !nbi
	}

	op := img.xfer(get, j-1, 0, nil)
	op.nbi = nbi
	switch img.opts.Strided {
	case StridedNaive:
		// §IV-C baseline: one transfer per maximal contiguous run — issued as
		// a single vectored call so the whole section costs one target-lock
		// acquisition instead of one per run. appendRunOffs enumerates runs
		// in dense value order, so vals' bytes already are the run payloads
		// back to back.
		sp := pgas.GetOffsScratch()
		op.Shape, op.Offs, op.Unit = pgas.Runs, c.appendRunOffs((*sp)[:0], sec, runDims, low), runElems*c.es
		op.Local = pgas.Bytes(vals)
		img.issue(op)
		*sp, op.Offs = op.Offs, nil
		pgas.PutOffsScratch(sp)
	default: // 1dim, 2dim, vendor: 1-D strided library calls along base dim
		base := c.baseDim(sec)
		op.Shape, op.Stride, op.Unit = pgas.Strided, int64(sec[base].Step)*int64(c.strides[base])*int64(c.es), c.es
		c.eachPencil(sec, base, low, !get, vals, func(byteOff int64, pencil []T) {
			op.Off, op.Local = byteOff, pgas.Bytes(pencil)
			img.issue(op)
		})
	}
	return vals, !nbi
}

// appendRunOffs appends the absolute byte offset of every maximal contiguous
// run of the section to offs, in dense value order: the first runDims
// dimensions form the run (single elements along dimension 1 when nothing
// merges, runDims == 0), from the section's low corner low (both lower's), and
// the remaining dimensions are stepped in column-major order. The walk carries the running byte offset and a
// stack-resident multi-index, so lowering a section allocates nothing beyond
// what offs itself needs.
func (c *Coarray[T]) appendRunOffs(offs []int64, sec Section, runDims int, low int64) []int64 {
	innerEnd := max(runDims, 1)
	es := int64(c.es)
	// Runs per outer position: one, unless dimension 1 is strided and every
	// element of it is its own run.
	n0, step0 := 1, int64(0)
	if runDims == 0 {
		n0, step0 = sec[0].Count(), int64(sec[0].Step)*int64(c.strides[0])*es
	}
	at := low // of the current outer position's first run
	outer := sec[innerEnd:]
	var idxBuf [8]int
	idx := idxBuf[:]
	if len(outer) > len(idxBuf) {
		idx = make([]int, len(outer))
	}
	for {
		for k := 0; k < n0; k++ {
			offs = append(offs, at+int64(k)*step0)
		}
		d := 0
		for ; d < len(outer); d++ {
			stride := int64(outer[d].Step) * int64(c.strides[innerEnd+d]) * es
			idx[d]++
			if idx[d] < outer[d].Count() {
				at += stride
				break
			}
			at -= int64(idx[d]-1) * stride
			idx[d] = 0
		}
		if d == len(outer) {
			return offs
		}
	}
}

// eachPencil enumerates 1-D pencils along the base dimension, iterating the
// other dimensions in column-major order, and calls f with each pencil's
// partition offset and its elements, dense. low is the section's low corner
// (lower's) and dense the section-order buffer. A pencil along dimension 1
// is a sub-slice of it, which f transfers in place; any other goes through the
// coarray's pencil buffer, gathered from dense before f for a put and
// scattered to it after f for a get. Like appendRunOffs the walk carries its
// running offsets — byteOff into the partition, at into dense — and a
// stack-resident multi-index, so it allocates nothing.
func (c *Coarray[T]) eachPencil(sec Section, base int, low int64, put bool, dense []T, f func(byteOff int64, pencil []T)) {
	nbase := sec[base].Count()
	baseStride := 1 // of the base dimension in dense
	for d := 0; d < base; d++ {
		baseStride *= sec[d].Count()
	}
	es := int64(c.es)
	byteOff := low // of the current pencil
	var pencil []T
	if base != 0 {
		if cap(c.pencil) < nbase {
			c.pencil = make([]T, nbase)
		}
		pencil = c.pencil[:nbase]
	}
	var idxBuf [8]int
	idx := idxBuf[:]
	if len(sec) > len(idxBuf) {
		idx = make([]int, len(sec))
	}
	at := 0
	for {
		switch {
		case base == 0:
			f(byteOff, dense[at:at+nbase])
		case put:
			for k := range pencil {
				pencil[k] = dense[at+k*baseStride]
			}
			f(byteOff, pencil)
		default:
			f(byteOff, pencil)
			for k := range pencil {
				dense[at+k*baseStride] = pencil[k]
			}
		}
		d, denseStride := 0, 1
		for ; d < len(sec); d++ {
			n := sec[d].Count()
			if d != base {
				stride := int64(sec[d].Step) * int64(c.strides[d]) * es
				idx[d]++
				if idx[d] < n {
					byteOff += stride
					at += denseStride
					break
				}
				byteOff -= int64(n-1) * stride
				at -= (n - 1) * denseStride
				idx[d] = 0
			}
			denseStride *= n
		}
		if d == len(sec) {
			return
		}
	}
}
