package caf

import (
	"math/rand"
	"testing"

	"cafshmem/internal/fabric"
)

func TestSectionCounts(t *testing.T) {
	s := Section{{0, 9, 2}, {1, 7, 3}}
	c := s.Counts()
	if c[0] != 5 || c[1] != 3 {
		t.Fatalf("counts = %v", c)
	}
	if s.NumElems() != 15 {
		t.Fatalf("NumElems = %d", s.NumElems())
	}
}

func TestSectionValidation(t *testing.T) {
	shape := []int{10, 8}
	bad := []Section{
		{{0, 9, 2}},             // rank mismatch
		{{0, 10, 1}, {0, 7, 1}}, // hi out of extent
		{{-1, 5, 1}, {0, 7, 1}}, // negative lo
		{{0, 9, 0}, {0, 7, 1}},  // zero step
		{{5, 2, 1}, {0, 7, 1}},  // empty range
	}
	c := geometryOnly(shape...)
	for i, s := range bad {
		if _, _, _, _, err := c.lower(s); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	if _, _, _, _, err := c.lower(All(10, 8)); err != nil {
		t.Errorf("full section should validate: %v", err)
	}
}

// odometer iterates the index space of dims (counts), calling f with the
// current multi-index, fastest dimension first: section order, spelled out as
// the tests' reference for the walks in strided.go. A nil or empty counts
// slice yields a single call with an empty index.
func odometer(counts []int, f func(idx []int)) {
	idx := make([]int, len(counts))
	for {
		f(idx)
		d := 0
		for d < len(counts) {
			idx[d]++
			if idx[d] < counts[d] {
				break
			}
			idx[d] = 0
			d++
		}
		if d == len(counts) {
			return
		}
	}
}

func TestOdometerOrder(t *testing.T) {
	var seen [][]int
	odometer([]int{2, 3}, func(idx []int) {
		seen = append(seen, append([]int(nil), idx...))
	})
	want := [][]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}
	if len(seen) != len(want) {
		t.Fatalf("odometer visited %d points, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i][0] != want[i][0] || seen[i][1] != want[i][1] {
			t.Fatalf("visit %d = %v, want %v (column-major order)", i, seen[i], want[i])
		}
	}
	// Empty dims: exactly one call with empty index.
	calls := 0
	odometer(nil, func(idx []int) { calls++ })
	if calls != 1 {
		t.Fatalf("empty odometer made %d calls", calls)
	}
}

func TestContigRun(t *testing.T) {
	err := Run(1, shmemOpts(), func(img *Image) {
		c := Allocate[int64](img, 10, 8, 4)
		cases := []struct {
			sec      Section
			dims, el int
		}{
			{All(10, 8, 4), 3, 320},                           // fully contiguous
			{Section{{0, 9, 1}, {0, 3, 1}, {1, 1, 1}}, 2, 40}, // full dim1, partial dim2
			{Section{{2, 7, 1}, {0, 7, 1}, {0, 3, 1}}, 1, 6},  // partial dim1 blocks merge
			{Section{{0, 9, 2}, {0, 7, 1}, {0, 3, 1}}, 0, 1},  // strided dim1: single elements
			{Section{{0, 9, 1}, {0, 7, 2}, {0, 3, 1}}, 1, 10}, // strided dim2
		}
		for i, tc := range cases {
			_, d, e, _, err := c.lower(tc.sec)
			if err != nil || d != tc.dims || e != tc.el {
				panic(map[string]interface{}{"case": i, "dims": d, "elems": e, "err": err})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// referencePut computes what the target partition should contain after
// putting vals into sec of a zeroed array, element-by-element.
func referenceApply(shape []int, sec Section, vals []int64) []int64 {
	n := 1
	strides := make([]int, len(shape))
	for i, d := range shape {
		strides[i] = n
		n *= d
	}
	out := make([]int64, n)
	counts := sec.Counts()
	vi := 0
	odometer(counts, func(idx []int) {
		lin := 0
		for d, v := range idx {
			lin += (sec[d].Lo + v*sec[d].Step) * strides[d]
		}
		out[lin] = vals[vi]
		vi++
	})
	return out
}

// TestStridedAlgorithmsEquivalent is the central correctness property of
// §IV-C: every strided algorithm must move exactly the same bytes; only the
// cost differs.
func TestStridedAlgorithmsEquivalent(t *testing.T) {
	algos := []struct {
		name string
		opts Options
	}{
		{"naive/mv2x", func() Options { o := shmemOpts(); o.Strided = StridedNaive; return o }()},
		{"1dim/mv2x", func() Options { o := shmemOpts(); o.Strided = StridedOneDim; return o }()},
		{"2dim/mv2x", func() Options { o := shmemOpts(); o.Strided = Strided2Dim; return o }()},
		{"2dim/cray", func() Options { o := crayOpts(); o.Strided = Strided2Dim; return o }()},
		{"vendor/cray", CrayCAF(fabric.CrayXC30())},
		{"naive/gasnet", gasnetOpts()},
	}
	rng := rand.New(rand.NewSource(7))
	shapes := [][]int{{16}, {8, 6}, {10, 8, 4}, {5, 4, 3, 2}}
	for trial := 0; trial < 6; trial++ {
		shape := shapes[trial%len(shapes)]
		sec := make(Section, len(shape))
		for d, ext := range shape {
			step := 1 + rng.Intn(3)
			lo := rng.Intn(ext)
			hi := lo + rng.Intn(ext-lo)
			sec[d] = Range{Lo: lo, Hi: hi, Step: step}
		}
		vals := make([]int64, sec.NumElems())
		for i := range vals {
			vals[i] = rng.Int63n(1 << 40)
		}
		want := referenceApply(shape, sec, vals)

		for _, a := range algos {
			var gotPut, gotGet []int64
			err := Run(2, a.opts, func(img *Image) {
				c := Allocate[int64](img, shape...)
				if img.ThisImage() == 2 {
					// Pre-fill image 2 so Get has known data.
					full := make([]int64, c.Len())
					for i := range full {
						full[i] = want[i]
					}
					c.SetSlice(full)
				}
				img.SyncAll()
				if img.ThisImage() == 1 {
					// Get the section from image 2 and compare against vals
					// extracted from `want`.
					gotGet = c.Get(2, sec)
					// Now zero image 2 and put.
				}
				img.SyncAll()
				if img.ThisImage() == 2 {
					c.Fill(0)
				}
				img.SyncAll()
				if img.ThisImage() == 1 {
					c.Put(2, sec, vals)
				}
				img.SyncAll()
				if img.ThisImage() == 2 {
					gotPut = c.Slice()
				}
				img.SyncAll()
			})
			if err != nil {
				t.Fatalf("trial %d algo %s: %v", trial, a.name, err)
			}
			for i := range want {
				if gotPut[i] != want[i] {
					t.Fatalf("trial %d algo %s: put element %d = %d, want %d (shape %v sec %+v)",
						trial, a.name, i, gotPut[i], want[i], shape, sec)
				}
			}
			for i := range vals {
				if gotGet[i] != vals[i] {
					t.Fatalf("trial %d algo %s: get element %d = %d, want %d",
						trial, a.name, i, gotGet[i], vals[i])
				}
			}
		}
	}
}

// TestStridedCosts checks the paper's §V-B2 ordering on the XC30 model for a
// 2-D strided transfer: 2dim < vendor (Cray-CAF) < naive in virtual cost.
func TestStridedCosts(t *testing.T) {
	sec := Section{{0, 99, 2}, {0, 79, 2}} // 50 x 40 strided elements
	vals := make([]int64, sec.NumElems())
	measure := func(o Options) float64 {
		var cost float64
		err := Run(17, o, func(img *Image) {
			c := Allocate[int64](img, 100, 80)
			img.SyncAll()
			img.Clock().Reset()
			if img.ThisImage() == 1 {
				c.Put(17, sec, vals) // image 17 is on another node
				cost = img.Clock().Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	naive := func() Options { o := crayOpts(); o.Strided = StridedNaive; return o }()
	twoDim := crayOpts()
	vendor := CrayCAF(fabric.CrayXC30())
	cN, c2, cV := measure(naive), measure(twoDim), measure(vendor)
	if !(c2 < cV && cV < cN) {
		t.Fatalf("cost ordering violated: 2dim=%v vendor=%v naive=%v", c2, cV, cN)
	}
	// The paper reports ~9x naive->2dim and ~3x vendor->2dim; allow wide bands.
	if cN/c2 < 3 {
		t.Fatalf("2dim should be several times cheaper than naive (got %.2fx)", cN/c2)
	}
	if cV/c2 < 1.5 {
		t.Fatalf("2dim should clearly beat the vendor path (got %.2fx)", cV/c2)
	}
}

// On MVAPICH2-X, iput is a loop of putmem, so 2dim has no advantage over
// naive for regular strided sections (paper Fig 7c/d).
func TestStridedMV2XNoIputAdvantage(t *testing.T) {
	sec := Section{{0, 99, 2}, {0, 79, 2}}
	vals := make([]int64, sec.NumElems())
	measure := func(o Options) float64 {
		var cost float64
		err := Run(17, o, func(img *Image) {
			c := Allocate[int64](img, 100, 80)
			img.SyncAll()
			img.Clock().Reset()
			if img.ThisImage() == 1 {
				c.Put(17, sec, vals)
				cost = img.Clock().Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	naive := func() Options { o := shmemOpts(); o.Strided = StridedNaive; return o }()
	twoDim := shmemOpts()
	cN, c2 := measure(naive), measure(twoDim)
	ratio := cN / c2
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("on MV2X naive and 2dim should cost about the same, got ratio %.2f", ratio)
	}
}

// Matrix-oriented sections (§V-D): when dimension 1 is contiguous, naive
// (putmem per contiguous block) must beat the strided algorithms.
func TestMatrixOrientedNaiveWins(t *testing.T) {
	sec := Section{{0, 99, 1}, {0, 79, 2}} // contiguous rows, strided columns
	vals := make([]int64, sec.NumElems())
	measure := func(o Options) float64 {
		var cost float64
		err := Run(17, o, func(img *Image) {
			c := Allocate[int64](img, 100, 80)
			img.SyncAll()
			img.Clock().Reset()
			if img.ThisImage() == 1 {
				c.Put(17, sec, vals)
				cost = img.Clock().Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	for _, base := range []Options{shmemOpts(), crayOpts()} {
		naive := base
		naive.Strided = StridedNaive
		twoDim := base
		twoDim.Strided = Strided2Dim
		cN, c2 := measure(naive), measure(twoDim)
		if cN >= c2 {
			t.Fatalf("%s: naive (%v) should beat 2dim (%v) for matrix-oriented strides",
				base.Profile, cN, c2)
		}
	}
}

// 2dim must pick the dimension with more strided elements among the first
// two (§IV-C's base_dim rule), reducing the strided call count.
func TestTwoDimBaseSelection(t *testing.T) {
	// dim1 has 4 elements, dim2 has 50: base must be dim2, giving 4 calls
	// (for each dim1 position) instead of 50.
	sec := Section{{0, 6, 2}, {0, 98, 2}}
	var calls2dim, calls1dim int64
	run := func(algo StridedAlgo) int64 {
		var calls int64
		o := crayOpts()
		o.Strided = algo
		err := Run(2, o, func(img *Image) {
			c := Allocate[int64](img, 8, 100)
			img.SyncAll()
			if img.ThisImage() == 1 {
				c.Put(2, sec, make([]int64, sec.NumElems()))
				calls = img.Stats.StridedCalls
			}
			img.SyncAll()
		})
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}
	calls2dim = run(Strided2Dim)
	calls1dim = run(StridedOneDim)
	if calls2dim != 4 {
		t.Fatalf("2dim should issue 4 strided calls (one per dim-1 position), got %d", calls2dim)
	}
	if calls1dim != 50 {
		t.Fatalf("1dim should issue 50 strided calls, got %d", calls1dim)
	}
}
