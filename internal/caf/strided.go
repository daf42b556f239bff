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
func (c *Coarray[T]) Put(j int, sec Section, vals []T) {
	c.img.pollFault()
	c.img.checkImage(j)
	if err := sec.validate(c.shape); err != nil {
		panic(err)
	}
	if sec.NumElems() != len(vals) {
		panic(fmt.Sprintf("caf: section selects %d elements but %d values given", sec.NumElems(), len(vals)))
	}
	c.putSection(j-1, sec, vals)
	c.img.maybeQuiet()
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
	c.getSection(j-1, sec, out)
	return out
}

// PutElem writes a single element: x(idx)[j] = v.
func (c *Coarray[T]) PutElem(j int, v T, idx ...int) {
	c.img.pollFault()
	c.img.checkImage(j)
	b := c.elemBytes(v)
	if c.img.opts.IntraNodeDirect && c.img.tr.DirectWrite(j-1, c.byteOff(idx), b) {
		c.img.Stats.DirectOps++
		return // a store completes immediately: no quiet needed
	}
	c.img.tr.PutMem(j-1, c.byteOff(idx), b)
	c.img.Stats.Puts++
	c.img.maybeQuiet()
}

// GetElem reads a single element: v = x(idx)[j].
func (c *Coarray[T]) GetElem(j int, idx ...int) T {
	c.img.pollFault()
	c.img.checkImage(j)
	b := c.img.word[:c.es]
	if c.img.opts.IntraNodeDirect {
		c.img.maybeQuiet() // pending puts must still be ordered before the load
		if c.img.tr.DirectRead(j-1, c.byteOff(idx), b) {
			c.img.Stats.DirectOps++
			return pgas.Load[T](b)
		}
	} else {
		c.img.maybeQuiet()
	}
	c.img.tr.GetMem(j-1, c.byteOff(idx), b)
	c.img.Stats.Gets++
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

func (c *Coarray[T]) putSection(target int, sec Section, vals []T) {
	tr := c.img.tr
	es := int64(c.es)

	// Fast path shared by all algorithms: a fully contiguous section is a
	// single putmem regardless of strategy — or a direct store when the
	// target shares the node and §VII's IntraNodeDirect is enabled. The
	// transport copies vals' own bytes into the partition: one memmove.
	runDims, runElems := c.contigRun(sec)
	if runDims == len(sec) {
		off := c.secLowOff(sec)
		data := pgas.Bytes(vals)
		if c.img.opts.IntraNodeDirect && tr.DirectWrite(target, off, data) {
			c.img.Stats.DirectOps++
		} else {
			tr.PutMem(target, off, data)
			c.img.Stats.Puts++
		}
		return
	}

	switch c.img.opts.Strided {
	case StridedNaive:
		// §IV-C baseline: one putmem per maximal contiguous run — issued as
		// a single vectored call so the whole section costs one target-lock
		// acquisition instead of one per run. appendRunOffs enumerates runs
		// in dense value order, so vals' bytes already are the run payloads
		// back to back.
		op := pgas.GetOffsScratch()
		offs := c.appendRunOffs((*op)[:0], sec, runDims)
		tr.PutMemV(target, offs, runElems*c.es, pgas.Bytes(vals))
		c.img.Stats.Puts += int64(len(offs))
		*op = offs
		pgas.PutOffsScratch(op)
	default: // 1dim, 2dim, vendor: 1-D strided library calls along base dim
		base := c.baseDim(sec)
		strideBytes := int64(sec[base].Step) * c.strides[base] * es
		c.eachPencil(sec, base, func(byteOff int64, gather []T) {
			tr.PutStrided1D(target, byteOff, strideBytes, c.es, pgas.Bytes(gather))
			c.img.Stats.StridedCalls++
		}, vals, nil)
	}
}

func (c *Coarray[T]) getSection(target int, sec Section, out []T) {
	tr := c.img.tr
	es := int64(c.es)

	runDims, runElems := c.contigRun(sec)
	if runDims == len(sec) {
		off := c.secLowOff(sec)
		raw := pgas.Bytes(out)
		if c.img.opts.IntraNodeDirect && tr.DirectRead(target, off, raw) {
			c.img.Stats.DirectOps++
		} else {
			tr.GetMem(target, off, raw)
			c.img.Stats.Gets++
		}
		return
	}

	switch c.img.opts.Strided {
	case StridedNaive:
		// One getmem per contiguous run, gathered with a single vectored
		// call; runs arrive densely in section order, which is out's.
		op := pgas.GetOffsScratch()
		offs := c.appendRunOffs((*op)[:0], sec, runDims)
		tr.GetMemV(target, offs, runElems*c.es, pgas.Bytes(out))
		c.img.Stats.Gets += int64(len(offs))
		*op = offs
		pgas.PutOffsScratch(op)
	default:
		base := c.baseDim(sec)
		strideBytes := int64(sec[base].Step) * c.strides[base] * es
		c.eachPencil(sec, base, func(byteOff int64, scatter []T) {
			tr.GetStrided1D(target, byteOff, strideBytes, c.es, pgas.Bytes(scatter))
			c.img.Stats.StridedCalls++
		}, nil, out)
	}
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
// other dimensions in column-major order. For puts it passes the pencil's
// source values densely; for gets it passes a dense pencil that the callback
// fills. vals/out are the dense section-order buffers; a pencil along
// dimension 1 is a sub-slice of them, any other is gathered from (scattered
// to) them through one reused buffer.
func (c *Coarray[T]) eachPencil(sec Section, base int, f func(byteOff int64, pencil []T), vals []T, out []T) {
	counts := sec.Counts()
	nbase := counts[base]

	// Section-order linear strides (for locating pencil elements in the
	// dense buffer).
	secStride := make([]int, len(sec))
	m := 1
	for d := range sec {
		secStride[d] = m
		m *= counts[d]
	}

	otherCounts := make([]int, 0, len(sec)-1)
	otherDims := make([]int, 0, len(sec)-1)
	for d := range sec {
		if d != base {
			otherCounts = append(otherCounts, counts[d])
			otherDims = append(otherDims, d)
		}
	}

	dense := vals
	if dense == nil {
		dense = out
	}
	var pencil []T
	if base != 0 {
		pencil = make([]T, nbase)
	}
	odometer(otherCounts, func(idx []int) {
		var lin int64
		secBase := 0
		for i, v := range idx {
			d := otherDims[i]
			lin += int64(sec[d].Lo+v*sec[d].Step) * c.strides[d]
			secBase += v * secStride[d]
		}
		lin += int64(sec[base].Lo) * c.strides[base]
		byteOff := c.off + lin*int64(c.es)

		if base == 0 {
			// The pencil's elements are already dense in the section-order
			// buffer: f transfers them in place.
			f(byteOff, dense[secBase:secBase+nbase])
			return
		}
		if vals != nil {
			for k := 0; k < nbase; k++ {
				pencil[k] = vals[secBase+k*secStride[base]]
			}
			f(byteOff, pencil)
			return
		}
		f(byteOff, pencil)
		for k := 0; k < nbase; k++ {
			out[secBase+k*secStride[base]] = pencil[k]
		}
	})
}
