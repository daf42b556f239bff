package cafshmem

// One sub-benchmark per catalogued figure of the paper's evaluation, plus
// ablation benchmarks for the design choices called out in DESIGN.md. Each
// regenerates the experiment's data and reports its headline quantities as
// custom metrics, so `go test -bench=. -benchmem` reproduces the entire
// evaluation. Virtual-time results are deterministic; the ns/op column
// reflects host execution cost, while the custom metrics carry the paper's
// actual measurements.

import (
	"sync/atomic"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
	"cafshmem/internal/pgasbench"
	"cafshmem/internal/transpose"
)

// --- Every catalogued figure (Figs 2, 3, 6–10, §V-D strides, overlap, signal) ---

// BenchmarkFigures regenerates each figure of pgasbench.Catalog at default
// scale and reports every band claim's value under the claim's id.
func BenchmarkFigures(b *testing.B) {
	for _, e := range pgasbench.Catalog {
		b.Run(e.ID, func(b *testing.B) {
			var results []pgasbench.Result
			for i := 0; i < b.N; i++ {
				f := e.Build(pgasbench.DefaultScale)
				var err error
				if results, err = pgasbench.EvaluateClaims(e.ID, &f); err != nil {
					b.Fatal(err)
				}
			}
			for _, r := range results {
				if r.Claim.Value != nil {
					b.ReportMetric(r.Value, r.Claim.ID)
				}
			}
		})
	}
}

// --- Table II: feature mapping (generation + invariants) ---

func BenchmarkTableIIMapping(b *testing.B) {
	n := 0
	for i := 0; i < b.N; i++ {
		n = len(caf.TableII())
	}
	b.ReportMetric(float64(n), "features")
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationQuiet quantifies the §IV-B conservative rule: quiet after
// every put vs deferring completion to synchronisation points.
func BenchmarkAblationQuiet(b *testing.B) {
	run := func(deferred bool) float64 {
		o := caf.UHCAFOverMV2XSHMEM()
		o.DeferredQuiet = deferred
		var t float64
		err := caf.Run(17, o, func(img *caf.Image) {
			c := caf.Allocate[int64](img, 64)
			img.SyncAll()
			img.Clock().Reset()
			if img.ThisImage() == 1 {
				for k := 0; k < 50; k++ {
					c.PutElem(17, int64(k), k%64)
				}
				t = img.Clock().Now()
			}
			img.SyncAll()
		})
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	var overhead float64
	for i := 0; i < b.N; i++ {
		conservative := run(false)
		deferred := run(true)
		overhead = conservative / deferred
	}
	b.ReportMetric(overhead, "x-conservative-vs-deferred")
}

// BenchmarkAblationLocks compares the paper's MCS lock against the
// remote-spinning CAS lock and the N-element global-lock-array strawman
// §IV-D rejects, under genuine concurrent contention (all images hammer
// lck[1] simultaneously). The telling metric is remote atomics per
// acquisition: MCS needs a constant number (enqueue + detach/hand-off),
// while remote spinning burns an unbounded stream of CAS probes — exactly
// the "spinning on non-local memory locations" traffic MCS exists to avoid.
func BenchmarkAblationLocks(b *testing.B) {
	for _, algo := range []caf.LockAlgo{caf.LockMCS, caf.LockNaiveSpin, caf.LockGlobalArray} {
		b.Run(algo.String(), func(b *testing.B) {
			var atomicsPerAcq float64
			const images, per = 16, 10
			for i := 0; i < b.N; i++ {
				o := caf.UHCAFOverCraySHMEM(fabric.Titan())
				o.Locks = algo
				var totalAtomics int64
				err := caf.Run(images, o, func(img *caf.Image) {
					lck := caf.NewLock(img)
					img.SyncAll()
					for k := 0; k < per; k++ {
						lck.Acquire(1)
						lck.Release(1)
					}
					img.SyncAll()
					atomic.AddInt64(&totalAtomics, img.Stats.Atomics)
				})
				if err != nil {
					b.Fatal(err)
				}
				atomicsPerAcq = float64(totalAtomics) / float64(images*per)
			}
			b.ReportMetric(atomicsPerAcq, "remote-atomics/acquire")
		})
	}
}

// BenchmarkAblationBaseDim quantifies why §IV-C restricts the base-dimension
// choice to the first two dimensions: on a section whose innermost and
// outermost dimensions select equally many elements, picking the outer one
// (StridedBestDim) walks huge memory strides and loses to 2dim despite
// issuing the same number of library calls.
func BenchmarkAblationBaseDim(b *testing.B) {
	measure := func(algo caf.StridedAlgo) float64 {
		o := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
		o.Strided = algo
		var t float64
		err := caf.Run(17, o, func(img *caf.Image) {
			// Innermost dimension: 32 elements at small stride; outermost: 63
			// elements at a huge memory stride. BestDim minimises call count
			// by walking the outer dimension; 2dim refuses, for locality.
			c := caf.Allocate[int64](img, 64, 4, 64)
			sec := caf.Section{{Lo: 0, Hi: 62, Step: 2}, {Lo: 0, Hi: 3, Step: 1}, {Lo: 0, Hi: 62, Step: 1}}
			vals := make([]int64, sec.NumElems())
			img.SyncAll()
			img.Clock().Reset()
			if img.ThisImage() == 1 {
				c.Put(17, sec, vals)
				t = img.Clock().Now()
			}
			img.SyncAll()
		})
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	var penalty float64
	for i := 0; i < b.N; i++ {
		twoDim := measure(caf.Strided2Dim)
		bestDim := measure(caf.StridedBestDim)
		penalty = bestDim / twoDim
	}
	b.ReportMetric(penalty, "x-bestdim-vs-2dim")
}

// BenchmarkTranspose exercises the all-to-all rectangular-section exchange of
// a distributed matrix transpose under each strided algorithm — the
// application-shaped companion to the Fig 6 microbenchmark.
func BenchmarkTranspose(b *testing.B) {
	for _, algo := range []caf.StridedAlgo{caf.StridedNaive, caf.Strided2Dim} {
		b.Run(algo.String(), func(b *testing.B) {
			o := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
			o.Strided = algo
			var mbps float64
			for i := 0; i < b.N; i++ {
				r, err := transpose.Run(o, 8, transpose.Plan{N: 64})
				if err != nil {
					b.Fatal(err)
				}
				mbps = r.MBps
			}
			b.ReportMetric(mbps, "MB/s-virtual")
		})
	}
}
