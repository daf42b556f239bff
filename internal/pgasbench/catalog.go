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

// Entry is one figure of the evaluation: what cmd/reproduce calls it, what it
// prints above it, and how to build it. Claims (claims.go) refer to it by ID.
// An application figure also names its application (App), which a transport
// sweep or a chaos replay runs instead of the figure; the other figures have
// none.
type Entry struct {
	ID    string
	Title string // with the paper's section
	Build func(Scale) Figure
	App   func(Scale) *App
}

// Catalog lists the evaluation in the paper's order, then the beyond-paper
// figures, then the ablations. cmd/reproduce, TestClaims and EXPERIMENTS.md's
// generated tables all walk this one list.
var Catalog = []Entry{
	{"fig2", "Figure 2: raw put latency (§III)", func(Scale) Figure { return Fig2() }, nil},
	{"fig3", "Figure 3: raw put bandwidth (§III)", func(Scale) Figure { return Fig3() }, nil},
	{"fig6", "Figure 6: CAF put + strided put, Cray XC30 (§V-B)", func(Scale) Figure { return Fig6() }, nil},
	{"fig7", "Figure 7: CAF put + strided put, Stampede (§V-B)", func(Scale) Figure { return Fig7() }, nil},
	{"fig8", "Figure 8: coarray locks, Titan (§V-B3)", func(s Scale) Figure { return Fig8(s.LockImages) }, nil},
	{"fig9", "Figure 9: distributed hash table, Titan (§V-C)", func(s Scale) Figure { return Fig9(s.DHTImages) }, dhtApp},
	{"fig10", "Figure 10: Himeno, Stampede (§V-D)", func(s Scale) Figure { return Fig10(s.HimenoImages, s.Himeno) }, himenoApp},
	{"matrix", "§V-D matrix-oriented strides (naive vs 2dim)", func(Scale) Figure { return MatrixOrientedAblation() }, nil},
	// The two Himeno schedule figures use their own 64-plane grid, which 32
	// images exhaust at either scale.
	{"overlap", "Nonblocking RMA overlap (beyond-paper, §VII direction)", func(Scale) Figure { return FigOverlap(32) }, nil},
	{"signal", "Put-with-signal: barrier-free ghost refresh (beyond-paper)", func(Scale) Figure { return FigSignal(32) }, nil},
	// The design choices the paper argues for, each against what it rejects.
	{"quiet", "Ablation: quiet after every put vs deferred completion (§IV-B)", func(Scale) Figure { return AblationQuiet() }, nil},
	{"basedim", "Ablation: 2dim's base dimension vs unrestricted best dimension (§IV-C)", func(Scale) Figure { return AblationBaseDim() }, nil},
	{"locks", "Ablation: MCS vs remote-spin CAS vs global lock array (§IV-D)", func(Scale) Figure { return AblationLocks() }, nil},
}

// Lookup returns the catalogued figure with the given id; a bare figure
// number names its figure (8 is fig8).
func Lookup(id string) (Entry, bool) {
	for _, e := range Catalog {
		if e.ID == id || e.ID == "fig"+id {
			return e, true
		}
	}
	return Entry{}, false
}
