package pgasbench

import "cafshmem/internal/himeno"

// Scale fixes how far the image-count sweeps of the application figures go.
type Scale struct {
	LockImages   int           // Fig 8
	DHTImages    int           // Fig 9
	HimenoImages int           // Fig 10
	Himeno       himeno.Params // Fig 10's grid
}

// DefaultScale regenerates the whole evaluation in a few seconds; FullScale
// sweeps to the paper's image counts.
var (
	DefaultScale = Scale{LockImages: 256, DHTImages: 256, HimenoImages: 128, Himeno: DefaultHimenoParams()}
	FullScale    = Scale{LockImages: 1024, DHTImages: 1024, HimenoImages: 2048,
		Himeno: himeno.Params{NX: 32, NY: 2048, NZ: 16, Iters: 3}}
)

// Entry is one figure of the evaluation: what the tools call it, what they
// print above it, and how to build it. Claims (claims.go) refer to it by ID.
type Entry struct {
	ID    string
	Title string // with the paper's section
	Micro bool   // part of the PGAS Microbenchmark suite (cmd/pgas-microbench's "all")
	Build func(Scale) Figure
}

// Catalog lists the evaluation in the paper's order, then the beyond-paper
// figures, then the ablations. cmd/reproduce, cmd/pgas-microbench, TestClaims
// and EXPERIMENTS.md's generated tables all walk this one list.
var Catalog = []Entry{
	{"fig2", "Figure 2: raw put latency (§III)", true, func(Scale) Figure { return Fig2() }},
	{"fig3", "Figure 3: raw put bandwidth (§III)", true, func(Scale) Figure { return Fig3() }},
	{"fig6", "Figure 6: CAF put + strided put, Cray XC30 (§V-B)", true, func(Scale) Figure { return Fig6() }},
	{"fig7", "Figure 7: CAF put + strided put, Stampede (§V-B)", true, func(Scale) Figure { return Fig7() }},
	{"fig8", "Figure 8: coarray locks, Titan (§V-B3)", true, func(s Scale) Figure { return Fig8(s.LockImages) }},
	{"fig9", "Figure 9: distributed hash table, Titan (§V-C)", false, func(s Scale) Figure { return Fig9(s.DHTImages, 128, 50) }},
	{"fig10", "Figure 10: Himeno, Stampede (§V-D)", false, func(s Scale) Figure { return Fig10(s.HimenoImages, s.Himeno) }},
	{"matrix", "§V-D matrix-oriented strides (naive vs 2dim)", true, func(Scale) Figure { return MatrixOrientedAblation() }},
	// The two Himeno schedule figures use their own 64-plane grid, which 32
	// images exhaust at either scale.
	{"overlap", "Nonblocking RMA overlap (beyond-paper, §VII direction)", false, func(Scale) Figure { return FigOverlap(32) }},
	{"signal", "Put-with-signal: barrier-free ghost refresh (beyond-paper)", false, func(Scale) Figure { return FigSignal(32) }},
	// The design choices the paper argues for, each against what it rejects.
	{"quiet", "Ablation: quiet after every put vs deferred completion (§IV-B)", false, func(Scale) Figure { return AblationQuiet() }},
	{"basedim", "Ablation: 2dim's base dimension vs unrestricted best dimension (§IV-C)", false, func(Scale) Figure { return AblationBaseDim() }},
	{"locks", "Ablation: MCS vs remote-spin CAS vs global lock array (§IV-D)", false, func(Scale) Figure { return AblationLocks() }},
}

// Lookup returns the catalogued figure with the given id.
func Lookup(id string) (Entry, bool) {
	for _, e := range Catalog {
		if e.ID == id {
			return e, true
		}
	}
	return Entry{}, false
}
