package fabric

import (
	"math"
	"testing"
	"testing/quick"
)

func testProfile() *CostProfile {
	return &CostProfile{
		Name:       "test",
		OverheadNs: 200, LatencyNs: 1000, GapNsPerByte: 0.2,
		IntraLatencyNs: 300, IntraGapNsPerByte: 0.1,
		AtomicNs: 500, Atomics: AtomicsNative,
		Strided: StridedHardware, StridedPerElemNs: 40,
		ContentionLatencyNs: 50, ContentionShareExp: 1.0,
	}
}

func TestPutInjectScalesWithBytes(t *testing.T) {
	p := testProfile()
	small := p.PutInjectNs(8, false, 1)
	big := p.PutInjectNs(1<<20, false, 1)
	if big <= small {
		t.Fatalf("1 MiB put (%v ns) not more expensive than 8 B put (%v ns)", big, small)
	}
	wantBig := 200 + float64(1<<20)*0.2
	if math.Abs(big-wantBig) > 1e-6 {
		t.Fatalf("big put = %v, want %v", big, wantBig)
	}
}

func TestIntraNodeCheaperThanInter(t *testing.T) {
	p := testProfile()
	if p.GetNs(1024, true, 1) >= p.GetNs(1024, false, 1) {
		t.Fatal("intra-node get should be cheaper than inter-node")
	}
	if p.DeliveryNs(true, 1) >= p.DeliveryNs(false, 1) {
		t.Fatal("intra-node delivery should be faster")
	}
}

func TestContentionIncreasesCost(t *testing.T) {
	p := testProfile()
	if p.PutInjectNs(4096, false, 16) <= p.PutInjectNs(4096, false, 1) {
		t.Fatal("16 contending pairs should slow a large put down")
	}
	if p.DeliveryNs(false, 16) <= p.DeliveryNs(false, 1) {
		t.Fatal("16 contending pairs should increase latency")
	}
}

func TestContentionFairSharing(t *testing.T) {
	// With ContentionShareExp == 1, per-byte gap scales linearly in pairs.
	p := testProfile()
	g1 := p.PutInjectNs(1<<20, false, 1) - p.OverheadNs
	g16 := p.PutInjectNs(1<<20, false, 16) - p.OverheadNs
	if math.Abs(g16/g1-16) > 1e-9 {
		t.Fatalf("fair sharing: got ratio %v, want 16", g16/g1)
	}
}

func TestAtomicAMEmulationCostsMore(t *testing.T) {
	native := testProfile()
	am := testProfile()
	am.Atomics = AtomicsAM
	am.AMHandlerNs = 900
	if am.AtomicRTTNs(false, 1) <= native.AtomicRTTNs(false, 1) {
		t.Fatal("AM-emulated atomic should cost more than native")
	}
}

func TestStridedHardwareBeatsLoop(t *testing.T) {
	hw := testProfile()
	loop := testProfile()
	loop.Strided = StridedLoop
	// For many small elements, one hardware descriptor beats N injections.
	n, sz := 1000, 4
	if hw.StridedInjectNs(n, sz, false, 1) >= loop.StridedInjectNs(n, sz, false, 1) {
		t.Fatal("hardware strided should beat loop-of-puts for many small elements")
	}
	// The loop's cost must equal n independent puts of sz bytes each.
	want := float64(n)*loop.OverheadNs + float64(n*sz)*loop.GapNsPerByte
	if got := loop.StridedInjectNs(n, sz, false, 1); math.Abs(got-want) > 1e-6 {
		t.Fatalf("loop strided = %v, want %v", got, want)
	}
}

func TestBarrierCostGrowsLogarithmically(t *testing.T) {
	p := testProfile()
	b2 := p.BarrierNs(2, 2)
	b1024 := p.BarrierNs(1024, 64)
	if b1024 <= b2 {
		t.Fatal("1024-PE barrier should cost more than 2-PE barrier")
	}
	// ceil(log2(1024)) == 10 rounds.
	want := 10 * (p.LatencyNs + p.OverheadNs)
	if math.Abs(b1024-want) > 1e-6 {
		t.Fatalf("barrier(1024) = %v, want %v", b1024, want)
	}
	if p.BarrierNs(1, 1) != p.OverheadNs {
		t.Fatal("single-PE barrier should cost only the overhead")
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := CeilLog2(n); got != want {
			t.Errorf("CeilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: all cost functions return non-negative, finite values for any
// sane message size and pair count.
func TestCostsNonNegativeProperty(t *testing.T) {
	p := testProfile()
	f := func(n uint16, pairs uint8, intra bool) bool {
		pr := int(pairs%64) + 1
		costs := []float64{
			p.PutInjectNs(int(n), intra, pr),
			p.GetNs(int(n), intra, pr),
			p.DeliveryNs(intra, pr),
			p.AtomicRTTNs(intra, pr),
			p.StridedInjectNs(int(n%1024)+1, 8, intra, pr),
		}
		for _, c := range costs {
			if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: put cost is monotone non-decreasing in message size.
func TestPutMonotoneInSizeProperty(t *testing.T) {
	p := testProfile()
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return p.PutInjectNs(x, false, 1) <= p.PutInjectNs(y, false, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStridedLocality(t *testing.T) {
	p := testProfile()
	p.MemGapNsPerByte = 0.2
	// Contiguous (stride == element size): no penalty.
	if got := p.StridedLocalityNs(100, 8, 8); got != 0 {
		t.Fatalf("contiguous locality penalty %v, want 0", got)
	}
	// Small stride: touches strideBytes per element.
	if got := p.StridedLocalityNs(100, 8, 16); got != 100*(16-8)*0.2 {
		t.Fatalf("16B-stride penalty %v", got)
	}
	// Huge stride: capped at one cache line per element.
	if got := p.StridedLocalityNs(100, 8, 4096); got != 100*(64-8)*0.2 {
		t.Fatalf("capped penalty %v", got)
	}
	// Disabled model: no penalty.
	p.MemGapNsPerByte = 0
	if got := p.StridedLocalityNs(100, 8, 4096); got != 0 {
		t.Fatalf("disabled model penalty %v", got)
	}
}

func TestStridedLocalityMonotoneInStride(t *testing.T) {
	p := testProfile()
	p.MemGapNsPerByte = 0.15
	prev := -1.0
	for _, stride := range []int64{4, 8, 16, 32, 64, 128, 1024} {
		got := p.StridedLocalityNs(10, 4, stride)
		if got < prev {
			t.Fatalf("locality penalty decreased at stride %d", stride)
		}
		prev = got
	}
}

// The contention-share term of gap comes from a table Machine.AddProfile
// fills; for every shipped profile and every pairs count its machine's nodes
// can hold, the tabled gap must equal the math.Pow expression bit for bit —
// virtual times depend on it — and past the table, or for a profile whose
// exponent changed after it was tabled, gap must evaluate the expression.
func TestTabledGapIsBitIdentical(t *testing.T) {
	gapExpr := func(p *CostProfile, intra bool, pairs int) float64 {
		g := p.GapNsPerByte
		if intra {
			g = p.IntraGapNsPerByte
		}
		if pairs > 1 {
			g *= math.Pow(float64(pairs), p.ContentionShareExp)
		}
		return g
	}
	check := func(what string, p *CostProfile, maxPairs int) {
		t.Helper()
		for pairs := 0; pairs <= maxPairs; pairs++ {
			for _, intra := range []bool{false, true} {
				if got, want := p.gap(intra, pairs), gapExpr(p, intra, pairs); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: gap(intra=%v, pairs=%d) = %v, math.Pow expression %v", what, intra, pairs, got, want)
				}
			}
		}
	}
	for _, m := range []*Machine{Stampede(), CrayXC30(), Titan()} {
		for _, name := range m.ProfileNames() {
			p := m.MustProfile(name)
			if len(p.share) != m.CoresPerNode+1 {
				t.Errorf("%s/%s: table holds %d entries, want pairs 0..%d", m.Name, name, len(p.share), m.CoresPerNode)
			}
			check(m.Name+"/"+name, p, 4*m.CoresPerNode) // the table, and well past it
		}
	}
	stale := *Stampede().MustProfile(ProfGASNetIBV)
	stale.ContentionShareExp = 1.5
	check("exponent changed after tabling", &stale, 20)
	check("never tabled", testProfile(), 20)
}
