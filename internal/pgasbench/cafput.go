package pgasbench

import (
	"slices"

	"cafshmem/internal/caf"
	"cafshmem/internal/pgas"
)

// cafPutIters is how many puts a source image makes at each x.
const cafPutIters = 3

// cafPut is one x of a CAF put series: the shape of the coarray the puts
// target, the section each put writes and the bytes it moves.
type cafPut struct {
	shape []int
	sec   caf.Section
	bytes int
}

// cafPutBandwidth is the one harness of the CAF put-bandwidth panels (Figs 6
// and 7, and the §V-D matrix strides): on two nodes, each of the first pairs
// images of node 1 puts vals into at(x)'s section of its partner's coarray on
// node 2, cafPutIters times between two barriers, and image 1's window gives
// x's bandwidth in MB/s. A coarray serves every x of its shape: where the
// shape changes, the last is freed and a new one allocated. The puts are laid
// out once, before the images start, and shared read-only among them.
func cafPutBandwidth[T pgas.Elem](c config, pairs int, xs []int, vals []T, at func(x int) cafPut) (Series, error) {
	per := c.Opts.Machine.CoresPerNode
	opts := c.Opts
	opts.ActivePairs = pairs
	puts := make([]cafPut, len(xs))
	for xi, x := range xs {
		puts[xi] = at(x)
	}
	results := make([]float64, len(xs))
	err := caf.Run(2*per, opts, func(img *Image) {
		me := img.ThisImage()
		var co *caf.Coarray[T]
		var shape []int
		for xi, put := range puts {
			if !slices.Equal(put.shape, shape) {
				if co != nil {
					co.Deallocate()
				}
				co, shape = caf.Allocate[T](img, put.shape...), put.shape
			}
			img.SyncAll()
			start := img.Clock().Now()
			if me <= pairs {
				for range cafPutIters {
					co.Put(me+per, put.sec, vals[:put.bytes/pgas.SizeOf[T]()])
				}
			}
			img.SyncAll()
			if me == 1 {
				elapsed := img.Clock().Now() - start
				results[xi] = float64(put.bytes) * cafPutIters / (elapsed / 1e9) / 1e6
			}
		}
		co.Deallocate()
	})
	if err != nil {
		return Series{}, err
	}
	out := Series{Label: c.Label}
	for xi, x := range xs {
		out.Rows = append(out.Rows, Row{X: float64(x), Value: results[xi]})
	}
	return out, nil
}

// cafContigPut is Figs 6/7 panels (a) and (b): contiguous co-indexed puts of
// each large size into one byte coarray. The source images put from the
// read-only zero source: a byte coarray's put hands it to the transport as it
// stands.
func cafContigPut(c config, pairs int) (Series, error) {
	vals := pgas.Zeros(maxSize(LargeSizes))
	return cafPutBandwidth(c, pairs, LargeSizes, vals, func(size int) cafPut {
		return cafPut{[]int{len(vals)}, caf.Section{{Lo: 0, Hi: size - 1, Step: 1}}, size}
	})
}

// cafStridedPut is Figs 6/7 panels (c) and (d): a 64x64-element section of
// 4-byte integers scattered at each stride in dimension 1 and at stride 2 in
// dimension 2, matching the regular multi-dimensional strides of §IV-C (both
// dimensions strided; cafMatrixPut is the matrix-oriented case).
func cafStridedPut(c config, pairs int) (Series, error) {
	return cafPutBandwidth(c, pairs, StrideSweep, make([]int32, sectionElems*sectionElems), func(stride int) cafPut { return section2D(stride, 2) })
}

// cafMatrixPut is the §V-D matrix-oriented section, the Himeno halo pattern:
// dimension 1 a contiguous block, dimension 2 at each stride.
func cafMatrixPut(c config, pairs int) (Series, error) {
	return cafPutBandwidth(c, pairs, StrideSweep, make([]int32, sectionElems*sectionElems), func(stride int) cafPut { return section2D(1, stride) })
}

// sectionElems is the extent of each dimension of a 2-D put section.
const sectionElems = 64

// section2D is the put of a 2-D section of 4-byte integers at element strides
// s1 and s2, into a coarray just large enough to hold it.
func section2D(s1, s2 int) cafPut {
	const n = sectionElems
	return cafPut{
		shape: []int{n * s1, n * s2},
		sec:   caf.Section{{Lo: 0, Hi: (n - 1) * s1, Step: s1}, {Lo: 0, Hi: (n - 1) * s2, Step: s2}},
		bytes: n * n * 4,
	}
}

// Image is re-exported for the harness closures' readability.
type Image = caf.Image
