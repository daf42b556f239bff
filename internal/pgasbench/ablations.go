package pgasbench

import (
	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
)

// The ablations of the design choices the paper argues for (§IV-B, §IV-C,
// §IV-D): one single-row panel each, the choice against what it rejects.

// timeOnImage1 returns the virtual microseconds image 1 of a 17-image job
// spends in body on a coarray of the given shape; image 17, its target, sits
// on the second node of both 16-core machines.
func timeOnImage1(o caf.Options, dims []int, body func(c *caf.Coarray[int64])) float64 {
	var t float64
	err := caf.Run(17, o, func(img *Image) {
		c := caf.Allocate[int64](img, dims...)
		img.SyncAll()
		img.Clock().Reset()
		if img.ThisImage() == 1 {
			body(c)
			t = img.Clock().Now() / 1e3
		}
		img.SyncAll()
	})
	if err != nil {
		panic(err)
	}
	return t
}

// singleRow completes p with one one-row series per label, the value of
// label i being value(i); the values are run together (parallel).
func singleRow(p Panel, x float64, labels []string, value func(i int) float64) []Panel {
	for i, v := range parallel(len(labels), value) {
		p.Series = append(p.Series, Series{Label: labels[i], Rows: []Row{{X: x, Value: v}}})
	}
	return []Panel{p}
}

// AblationQuiet prices the §IV-B conservative rule on Stampede: a stream of
// 50 eight-byte puts with a quiet after each against the same stream with
// completion deferred to the next synchronisation point.
func AblationQuiet() Figure {
	const puts = 50
	p := Panel{Title: "Stream of 8-byte puts, image 1 to image 17", XLabel: "puts", YLabel: "time (us)"}
	return Figure{ID: "AblationQuiet", Title: "§IV-B: quiet after every put vs deferred completion",
		Panels: singleRow(p, puts, []string{"conservative", "deferred"}, func(i int) float64 {
			o := caf.UHCAFOverMV2XSHMEM()
			o.DeferredQuiet = i == 1
			return timeOnImage1(o, []int{64}, func(c *caf.Coarray[int64]) {
				for k := 0; k < puts; k++ {
					c.PutElem(17, int64(k), k%64)
				}
			})
		})}
}

// AblationBaseDim prices §IV-C's restriction of the base dimension to the
// first two on the XC30. The section's innermost dimension selects 32 elements
// at a small stride, its outermost 63 at a huge one: best-dimension issues the
// fewest calls by walking the outer one, 2dim refuses, for locality.
func AblationBaseDim() Figure {
	sec := caf.Section{{Lo: 0, Hi: 62, Step: 2}, {Lo: 0, Hi: 3, Step: 1}, {Lo: 0, Hi: 62, Step: 1}}
	vals := make([]int64, sec.NumElems())
	algos := []caf.StridedAlgo{caf.Strided2Dim, caf.StridedBestDim}
	p := Panel{Title: "One put of a 32x4x63 section of a 64x4x64 coarray, image 1 to image 17", XLabel: "elements", YLabel: "time (us)"}
	return Figure{ID: "AblationBaseDim", Title: "§IV-C: base dimension among the first two vs unrestricted best dimension",
		Panels: singleRow(p, float64(len(vals)), []string{"2dim", "bestdim"}, func(i int) float64 {
			o := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
			o.Strided = algos[i]
			return timeOnImage1(o, []int{64, 4, 64}, func(c *caf.Coarray[int64]) { c.Put(17, sec, vals) })
		})}
}

// AblationLocks counts remote atomics per acquisition on Titan for the paper's
// MCS adaptation, the remote-spinning CAS lock and the N-word global lock
// array §IV-D rejects, with sixteen images contending for lck[1] at once. A
// spinner counts the probes replayed up to the release it wakes on
// (pgas.PE.Spin); which woken spinner takes the word, and so the counts, may
// follow arrival order at the contended word (internal/pgas/engine.go).
func AblationLocks() Figure {
	const images, per = 16, 10
	algos := []caf.LockAlgo{caf.LockMCS, caf.LockNaiveSpin, caf.LockGlobalArray}
	labels := make([]string, len(algos))
	for i, a := range algos {
		labels[i] = a.String()
	}
	p := Panel{Title: "All images acquiring/releasing lck[1], 10 times each", XLabel: "images", YLabel: "remote atomics per acquisition"}
	return Figure{ID: "AblationLocks", Title: "§IV-D: MCS vs remote-spin CAS vs global lock array",
		Panels: singleRow(p, images, labels, func(i int) float64 {
			o := caf.UHCAFOverCraySHMEM(fabric.Titan())
			o.Locks = algos[i]
			atomics := make([]int64, images)
			err := caf.Run(images, o, func(img *Image) {
				lck := caf.NewLock(img)
				img.SyncAll()
				for k := 0; k < per; k++ {
					lck.Acquire(1)
					lck.Release(1)
				}
				img.SyncAll()
				atomics[img.ThisImage()-1] = img.Stats.Atomics
			})
			if err != nil {
				panic(err)
			}
			var total int64
			for _, a := range atomics {
				total += a
			}
			return float64(total) / (images * per)
		})}
}
