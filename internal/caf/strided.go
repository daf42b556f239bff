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
	c.checkPut(j, sec, vals)
	if inFlight := c.section(rmaOp{put: true, nbi: nbi, target: j - 1}, sec, vals); !inFlight {
		c.img.maybeQuiet()
	}
}

// checkPut is the common entry of the section-put statements.
func (c *Coarray[T]) checkPut(j int, sec Section, vals []T) {
	c.img.pollFault()
	c.img.checkImage(j)
	if err := sec.validate(c.shape); err != nil {
		panic(err)
	}
	if sec.NumElems() != len(vals) {
		panic(fmt.Sprintf("caf: section selects %d elements but %d values given", sec.NumElems(), len(vals)))
	}
}

// Get reads section sec of the coarray on image j (1-based), returning the
// elements dense in column-major section order.
func (c *Coarray[T]) Get(j int, sec Section) []T {
	c.img.pollFault()
	c.img.checkImage(j)
	if err := sec.validate(c.shape); err != nil {
		panic(err)
	}
	c.img.maybeQuiet() // §IV-B: quiet before get
	out := make([]T, sec.NumElems())
	c.section(rmaOp{target: j - 1}, sec, out)
	return out
}

// PutElem writes a single element: x(idx)[j] = v.
func (c *Coarray[T]) PutElem(j int, v T, idx ...int) {
	img := c.img
	img.pollFault()
	img.checkImage(j)
	op := rmaOp{put: true, direct: img.opts.IntraNodeDirect, target: j - 1, off: c.byteOff(idx)}
	if !img.issue(&op, c.elemBytes(v)) {
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
	img.issue(&rmaOp{direct: img.opts.IntraNodeDirect, target: j - 1, off: c.byteOff(idx)}, b)
	return pgas.Load[T](b)
}

// PutFull writes the entire local array of image j: x(:,...,:)[j] = vals.
func (c *Coarray[T]) PutFull(j int, vals []T) { c.Put(j, All(c.shape...), vals) }

// GetFull reads the entire local array of image j.
func (c *Coarray[T]) GetFull(j int) []T { return c.Get(j, All(c.shape...)) }

// contigRun returns the number of leading dimensions that form one
// contiguous run and the run length in elements. Dimension d can merge into
// the run if its step is 1 and every earlier dimension is covered in full.
func (c *Coarray[T]) contigRun(sec Section) (runDims, runElems int) {
	runElems = 1
	fullSoFar := true
	for d := 0; d < len(sec); d++ {
		if sec[d].Step != 1 || (d > 0 && !fullSoFar) {
			break
		}
		runElems *= sec[d].Count()
		runDims = d + 1
		fullSoFar = fullSoFar && sec[d].Lo == 0 && sec[d].Count() == c.shape[d]
	}
	if runDims == 0 {
		runElems = 1
	}
	return runDims, runElems
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

// secLowOff returns the absolute byte offset of the section's low corner.
func (c *Coarray[T]) secLowOff(sec Section) int64 {
	var lin int64
	for d := range sec {
		lin += int64(sec[d].Lo) * c.strides[d]
	}
	return c.off + lin*int64(c.es)
}

// section lowers the transfer of section sec between the coarray on op.target
// and vals, the section's elements dense in column-major order: written for a
// put, filled for a get. op carries the direction, the target and whether a
// put is nonblocking; the rest of the descriptor is the lowering's. It reports
// whether the put was left in flight: a nonblocking put on a transport without
// Caps.NBI is a blocking one, decided here once for the whole section.
//
// A blocking transfer hands the funnel vals' own bytes — one memmove into the
// partition. A nonblocking put hands it a fresh copy (snapshot): that copy is
// PutAsync's snapshot-at-issue contract — the payload is retained past the
// call, so by pgas/buffer.go's rule it is copied — and the runtime (and the
// sanitizer's live view) owns it until the next completion, so it is never
// pooled either: recycling it before then would be exactly the source-reuse
// bug the checker exists to catch.
func (c *Coarray[T]) section(op rmaOp, sec Section, vals []T) (inFlight bool) {
	img := c.img
	op.nbi = op.nbi && img.caps.NBI

	// Shared by all algorithms: a fully contiguous section is a single
	// transfer regardless of strategy — or a direct load/store when the
	// target shares the node and §VII's IntraNodeDirect is enabled.
	runDims, runElems := c.contigRun(sec)
	if runDims == len(sec) {
		op.off = c.secLowOff(sec)
		op.direct = img.opts.IntraNodeDirect && !op.nbi
		img.issue(&op, payload(vals, op.nbi))
		return op.nbi
	}

	switch img.opts.Strided {
	case StridedNaive:
		// §IV-C baseline: one transfer per maximal contiguous run — issued as
		// a single vectored call so the whole section costs one target-lock
		// acquisition instead of one per run. appendRunOffs enumerates runs
		// in dense value order, so vals' bytes already are the run payloads
		// back to back.
		sp := pgas.GetOffsScratch()
		op.shape, op.offs, op.run = vectored, c.appendRunOffs((*sp)[:0], sec, runDims), runElems*c.es
		img.issue(&op, payload(vals, op.nbi))
		*sp = op.offs
		pgas.PutOffsScratch(sp)
	default: // 1dim, 2dim, vendor: 1-D strided library calls along base dim
		base := c.baseDim(sec)
		op.shape, op.stride, op.elem = strided, int64(sec[base].Step)*c.strides[base]*int64(c.es), c.es
		c.eachPencil(sec, base, op.put, vals, func(byteOff int64, pencil []T) {
			op.off = byteOff
			img.issue(&op, payload(pencil, op.nbi))
		})
	}
	return op.nbi
}

// payload returns the bytes section hands the funnel for vals: vals' own, or
// for a nonblocking put a copy the runtime owns.
func payload[T pgas.Elem](vals []T, nbi bool) []byte {
	if nbi {
		return append([]byte(nil), pgas.Bytes(vals)...)
	}
	return pgas.Bytes(vals)
}

// appendRunOffs appends the absolute byte offset of every maximal contiguous
// run of the section to offs, in dense value order: the first runDims
// dimensions form the run (single elements along dimension 1 when nothing
// merges, runDims == 0), and the remaining dimensions are stepped in
// column-major order. The walk carries the running linear offset and a
// stack-resident multi-index, so lowering a section allocates nothing beyond
// what offs itself needs.
func (c *Coarray[T]) appendRunOffs(offs []int64, sec Section, runDims int) []int64 {
	innerEnd := max(runDims, 1)
	es := int64(c.es)
	// Runs per outer position: one, unless dimension 1 is strided and every
	// element of it is its own run.
	n0, step0 := 1, int64(0)
	if runDims == 0 {
		n0, step0 = sec[0].Count(), int64(sec[0].Step)*c.strides[0]
	}
	var lin int64 // the section's low corner, in elements
	for d := range sec {
		lin += int64(sec[d].Lo) * c.strides[d]
	}
	outer := sec[innerEnd:]
	var idxBuf [8]int
	idx := idxBuf[:]
	if len(outer) > len(idxBuf) {
		idx = make([]int, len(outer))
	}
	for {
		for k := 0; k < n0; k++ {
			offs = append(offs, c.off+(lin+int64(k)*step0)*es)
		}
		d := 0
		for ; d < len(outer); d++ {
			stride := int64(outer[d].Step) * c.strides[innerEnd+d]
			idx[d]++
			if idx[d] < outer[d].Count() {
				lin += stride
				break
			}
			lin -= int64(idx[d]-1) * stride
			idx[d] = 0
		}
		if d == len(outer) {
			return offs
		}
	}
}

// eachPencil enumerates 1-D pencils along the base dimension, iterating the
// other dimensions in column-major order, and calls f with each pencil's
// partition offset and its elements, dense. dense is the section-order
// buffer. A pencil along dimension 1 is a sub-slice of it, which f transfers
// in place; any other goes through the coarray's pencil buffer, gathered from
// dense before f for a put and scattered to it after f for a get. Like
// appendRunOffs the walk carries its running offsets — lin into the array,
// at into dense — and a stack-resident multi-index, so it allocates nothing.
func (c *Coarray[T]) eachPencil(sec Section, base int, put bool, dense []T, f func(byteOff int64, pencil []T)) {
	nbase := sec[base].Count()
	baseStride := 1 // of the base dimension in dense
	for d := 0; d < base; d++ {
		baseStride *= sec[d].Count()
	}
	var lin int64 // the section's low corner, in elements
	for d := range sec {
		lin += int64(sec[d].Lo) * c.strides[d]
	}
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
		byteOff := c.off + lin*int64(c.es)
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
				stride := int64(sec[d].Step) * c.strides[d]
				idx[d]++
				if idx[d] < n {
					lin += stride
					at += denseStride
					break
				}
				lin -= int64(n-1) * stride
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
