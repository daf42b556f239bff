package transpose

import (
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
)

func TestColRangeCoversMatrix(t *testing.T) {
	for _, tc := range []struct{ n, images int }{{10, 3}, {16, 4}, {7, 7}, {9, 2}} {
		prev := 0
		for m := 1; m <= tc.images; m++ {
			lo, hi := colRange(tc.n, tc.images, m)
			if lo != prev {
				t.Fatalf("n=%d images=%d: gap at image %d", tc.n, tc.images, m)
			}
			if hi < lo {
				t.Fatalf("negative range")
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d images=%d: columns not covered (%d)", tc.n, tc.images, prev)
		}
	}
}

func TestTransposeCorrectAllAlgorithms(t *testing.T) {
	// The transpose self-verifies inside Run; a pass means every element
	// landed where the analytic transpose says.
	for _, algo := range []caf.StridedAlgo{caf.StridedNaive, caf.StridedOneDim, caf.Strided2Dim, caf.StridedBestDim} {
		o := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
		o.Strided = algo
		if _, err := Run(o, 4, Plan{N: 12}); err != nil {
			t.Fatalf("algo %v: %v", algo, err)
		}
	}
}

func TestTransposeBothTransports(t *testing.T) {
	st := fabric.Stampede()
	for _, o := range []caf.Options{
		caf.UHCAFOverMV2XSHMEM(),
		caf.UHCAFOverGASNet(st, fabric.ProfGASNetIBV),
	} {
		if _, err := Run(o, 3, Plan{N: 10}); err != nil {
			t.Fatalf("%s: %v", o.Profile, err)
		}
	}
}

func TestTransposeUnevenDistribution(t *testing.T) {
	// 13 columns over 5 images: 3+3+3+2+2.
	if _, err := Run(caf.UHCAFOverMV2XSHMEM(), 5, Plan{N: 13}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeSingleImage(t *testing.T) {
	if _, err := Run(caf.UHCAFOverMV2XSHMEM(), 1, Plan{N: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeValidation(t *testing.T) {
	if _, err := Run(caf.UHCAFOverMV2XSHMEM(), 2, Plan{N: 0}); err == nil {
		t.Fatal("zero-size matrix should fail")
	}
	if _, err := Run(caf.UHCAFOverMV2XSHMEM(), 9, Plan{N: 4}); err == nil {
		t.Fatal("more images than columns should fail")
	}
}

func TestTransposeTimingSane(t *testing.T) {
	r, err := Run(caf.UHCAFOverCraySHMEM(fabric.CrayXC30()), 4, Plan{N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if r.TimeMs <= 0 || r.MBps <= 0 {
		t.Fatalf("timing not populated: %+v", r)
	}
}

// BenchmarkTranspose runs the all-to-all rectangular-section exchange under
// each strided algorithm: the application-shaped companion of Fig 6.
func BenchmarkTranspose(b *testing.B) {
	for _, algo := range []caf.StridedAlgo{caf.StridedNaive, caf.Strided2Dim} {
		b.Run(algo.String(), func(b *testing.B) {
			o := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
			o.Strided = algo
			for i := 0; i < b.N; i++ {
				r, err := Run(o, 8, Plan{N: 64})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.MBps, "MB/s-virtual")
			}
		})
	}
}
