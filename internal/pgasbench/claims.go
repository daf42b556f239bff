package pgasbench

import (
	"fmt"
	"io"
	"math"
	"strings"

	"cafshmem/internal/fabric"
)

// Claim is one sentence of the paper's evaluation — or one expectation of a
// beyond-paper figure — with the check that holds a built figure to it. A
// claim is a band (Value must land in [Lo, Hi]) or a predicate (Holds).
type Claim struct {
	ID     string
	Figure string // Entry.ID
	Text   string // the paper's sentence and section
	// Unstable, when set, says why this claim's value differs between runs of
	// one tree: it is printed with the run's value, never decides a verdict,
	// and is documented by this text in place of a number.
	Unstable string

	Value  func(view) float64
	Paper  float64 // the paper's number in Unit; 0 when it states none
	Lo, Hi float64
	Unit   string

	Holds func(view) (measured string, ok bool)
}

// Result is one claim evaluated against one built figure.
type Result struct {
	Claim    *Claim
	Value    float64 // a band claim's statistic
	Measured string  // this run's value as printed
	Held     bool
}

// Missed reports a stable claim that did not hold: what fails the gate.
func (r Result) Missed() bool { return !r.Held && r.Claim.Unstable == "" }

// status is the result's mark in the tools' output and in EXPERIMENTS.md.
func (r Result) status() (text, md string) {
	switch {
	case r.Claim.Unstable != "":
		return "unstable", "unstable"
	case r.Held:
		return "ok", "✓"
	}
	return "MISSED", "✗"
}

// MissingSeriesError reports a claim that names a series (or panel) its
// figure does not have — a renamed label, not a missed claim.
type MissingSeriesError struct {
	Claim, Figure, Panel, Label string
}

func (e *MissingSeriesError) Error() string {
	return fmt.Sprintf("claim %s: figure %s, panel %q has no series %q", e.Claim, e.Figure, e.Panel, e.Label)
}

// view is a built figure as a claim reads it.
type view struct{ f *Figure }

// series resolves a label; a miss unwinds to Evaluate as a MissingSeriesError.
func (v view) series(panel int, label string) Series {
	if panel >= len(v.f.Panels) {
		panic(&MissingSeriesError{Figure: v.f.ID, Panel: fmt.Sprintf("#%d", panel), Label: label})
	}
	p := &v.f.Panels[panel]
	s := p.FindSeries(label)
	if s == nil {
		panic(&MissingSeriesError{Figure: v.f.ID, Panel: p.Title, Label: label})
	}
	return *s
}

// Evaluate holds f, built from the claim's catalogued figure, to the claim.
func (c *Claim) Evaluate(f *Figure) (r Result, err error) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case *MissingSeriesError:
			p.Claim = c.ID
			err = p
		default:
			panic(p)
		}
	}()
	r.Claim = c
	if c.Holds != nil {
		r.Measured, r.Held = c.Holds(view{f})
		return r, nil
	}
	r.Value = c.Value(view{f})
	r.Measured, r.Held = fmt.Sprintf("%.4g%s", r.Value, c.Unit), r.Value >= c.Lo && r.Value <= c.Hi
	return r, nil
}

// EvaluateClaims evaluates every claim on the catalogued figure id against f,
// in table order, stopping at a claim whose labels do not resolve.
func EvaluateClaims(id string, f *Figure) ([]Result, error) {
	var results []Result
	for i := range Claims {
		if Claims[i].Figure != id {
			continue
		}
		r, err := Claims[i].Evaluate(f)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// ReportClaims is EvaluateClaims with each result printed under the figure,
// the way every cmd tool shows them.
func ReportClaims(w io.Writer, id string, f *Figure) ([]Result, error) {
	results, err := EvaluateClaims(id, f)
	fmt.Fprintln(w)
	for _, r := range results {
		fmt.Fprintln(w, r)
	}
	return results, err
}

// heldTo is what the claim is held to: the paper's number and the accepted band.
func (c *Claim) heldTo() (paper, accepted string) {
	if c.Holds != nil {
		return "—", "holds"
	}
	paper = "—"
	if c.Paper != 0 {
		paper = fmt.Sprintf("%g%s", c.Paper, c.Unit)
	}
	return paper, fmt.Sprintf("%g–%g%s", c.Lo, c.Hi, c.Unit)
}

// String is the line the cmd tools print under a figure.
func (r Result) String() string {
	paper, accepted := r.Claim.heldTo()
	mark, _ := r.status()
	return fmt.Sprintf("%-8s %s: %s\n         paper %s, accepted %s, measured %s", mark, r.Claim.ID, r.Claim.Text, paper, accepted, r.Measured)
}

// ClaimsBlock renders one figure's results as the marked table EXPERIMENTS.md
// carries for it. An unstable row shows its reason, not this run's value.
func ClaimsBlock(id string, results []Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "<!-- claims:%s (generated: go run ./cmd/reproduce) -->\n", id)
	b.WriteString("| Claim | Paper says | Paper | Accepted | Measured | Status |\n|---|---|---|---|---|---|\n")
	for _, r := range results {
		paper, accepted := r.Claim.heldTo()
		measured := r.Measured
		if r.Claim.Unstable != "" {
			measured = r.Claim.Unstable
		}
		_, status := r.status()
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n", r.Claim.ID, r.Claim.Text, paper, accepted, measured, status)
	}
	fmt.Fprintf(&b, "<!-- /claims:%s -->\n", id)
	return b.String()
}

// Statistics over a figure's series.

func geo(panel int, num, den string) func(view) float64 {
	return func(v view) float64 { return GeoMeanRatio(v.series(panel, num), v.series(panel, den)) }
}

// gainPct turns a ratio into "num is this much above den".
func gainPct(ratio func(view) float64) func(view) float64 {
	return func(v view) float64 { return (ratio(v) - 1) * 100 }
}

// fasterPct turns a time ratio slow/fast into "fast takes this much less time".
func fasterPct(ratio func(view) float64) func(view) float64 {
	return func(v view) float64 { return (1 - 1/ratio(v)) * 100 }
}

// maxGainPct is the largest row-wise lead of num over den.
func maxGainPct(panel int, num, den string) func(view) float64 {
	return func(v view) float64 {
		a, b := v.series(panel, num), v.series(panel, den)
		best := 0.0
		for i := range a.Rows {
			best = math.Max(best, (a.Rows[i].Value/b.Rows[i].Value-1)*100)
		}
		return best
	}
}

type pred = func(view) (string, bool)

var everyX = [2]float64{0, math.Inf(1)}

// below holds when series lo is positive and strictly under series hi at every
// row whose X lies in within, and there is such a row. It reports the widest margin,
// in the digits the figure's panel prints.
func below(panel int, lo, hi string, within [2]float64) pred {
	return func(v view) (string, bool) {
		a, b := v.series(panel, lo), v.series(panel, hi)
		n, widest := 0, -1
		for i, r := range a.Rows {
			if r.X < within[0] || r.X > within[1] {
				continue
			}
			if !(0 < r.Value && r.Value < b.Rows[i].Value) {
				return fmt.Sprintf("%s %.3f not in (0, %s %.3f) at %.0f", lo, r.Value, hi, b.Rows[i].Value, r.X), false
			}
			if n++; widest < 0 || b.Rows[i].Value/r.Value > b.Rows[widest].Value/a.Rows[widest].Value {
				widest = i
			}
		}
		if n == 0 {
			return fmt.Sprintf("%s vs %s: no row in %g–%g", lo, hi, within[0], within[1]), false
		}
		return fmt.Sprintf("%s < %s at all %d rows (widest %.3f vs %.3f at %.0f)",
			lo, hi, n, a.Rows[widest].Value, b.Rows[widest].Value, a.Rows[widest].X), true
	}
}

// trend holds when the series ends above (up) or below where it starts.
func trend(panel int, label string, up bool) pred {
	return func(v view) (string, bool) {
		s := v.series(panel, label)
		first, last := s.Rows[0], s.Rows[len(s.Rows)-1]
		return fmt.Sprintf("%s %.3f → %.3f over %.0f → %.0f", label, first.Value, last.Value, first.X, last.X),
			first.Value != last.Value && (last.Value > first.Value) == up
	}
}

func all(ps ...pred) pred {
	return func(v view) (string, bool) {
		var parts []string
		ok := true
		for _, p := range ps {
			s, held := p(v)
			parts = append(parts, s)
			ok = ok && held
		}
		return strings.Join(parts, "; "), ok
	}
}

// belowEach is below for each label prefix of a Himeno schedule panel.
func belowEach(panel int, prefixes func() []string, lo, hi string, within [2]float64) pred {
	return func(v view) (string, bool) {
		var ps []pred
		for _, p := range prefixes() {
			ps = append(ps, below(panel, p+lo, p+hi, within))
		}
		return all(ps...)(v)
	}
}

// machines and transports are those panels' label prefixes.
func machines() []string   { return labels(overlapMachines()) }
func transports() []string { return labels(transportConfigs()) }

func labels(configs []config) (out []string) {
	for _, c := range configs {
		out = append(out, c.Label)
	}
	return out
}

// Series labels the claims read (the builders in figures*.go set them).
const (
	crayCAF   = "Cray-CAF"
	uhGASNet  = "UHCAF-GASNet"
	craySHMEM = "UHCAF-Cray-SHMEM"
	mv2x      = "UHCAF-MVAPICH2-X-SHMEM"
	naive     = "-naive"
	twoDim    = "-2dim"

	unstableDHT = "not reproducible run to run — ROADMAP P0"
)

// Claims is the evaluation's one table: every number and ordering the
// repository says it reproduces, beside what it is held to. cmd/reproduce
// gates on it, TestClaims runs it, and EXPERIMENTS.md's tables are its
// rendering — so the document cannot certify what the code does not produce.
var Claims = []Claim{
	{ID: "fig2.mpi-slowest", Figure: "fig2",
		Text: `"latency of both GASNet and OpenSHMEM is less than the tested MPI-3.0 implementations when there is no contention" (§III; small sizes, both machines, µs)`,
		Holds: all(below(0, fabric.ProfMV2XSHMEM, fabric.ProfMV2XMPI3, everyX), below(0, fabric.ProfGASNetIBV, fabric.ProfMV2XMPI3, everyX),
			below(2, fabric.ProfCraySHMEM, fabric.ProfCrayMPICH, everyX), below(2, fabric.ProfGASNetGemini, fabric.ProfCrayMPICH, everyX))},
	{ID: "fig2.similar-on-stampede", Figure: "fig2",
		Text:  `"For small data sizes … performance of OpenSHMEM and GASNet are almost similar on Stampede" (§III; GASNet latency above SHMEM's, geomean over 8–2048 B)`,
		Value: gainPct(geo(0, fabric.ProfGASNetIBV, fabric.ProfMV2XSHMEM)), Lo: 0, Hi: 10, Unit: " %"},
	{ID: "fig2.cray-shmem-beats-gasnet", Figure: "fig2",
		Text:  `"Cray SHMEM performs better than GASNet on Titan" (§III; small sizes, µs)`,
		Holds: below(2, fabric.ProfCraySHMEM, fabric.ProfGASNetGemini, everyX)},
	{ID: "fig2.shmem-best-large", Figure: "fig2",
		Text: `"For large message sizes OpenSHMEM performs better than GASNet" (§III; and than MPI-3.0, both machines, µs)`,
		Holds: all(below(1, fabric.ProfMV2XSHMEM, fabric.ProfGASNetIBV, everyX), below(1, fabric.ProfMV2XSHMEM, fabric.ProfMV2XMPI3, everyX),
			below(3, fabric.ProfCraySHMEM, fabric.ProfGASNetGemini, everyX), below(3, fabric.ProfCraySHMEM, fabric.ProfCrayMPICH, everyX))},

	{ID: "fig3.shmem-best", Figure: "fig3",
		Text: `"The bandwidth of SHMEM is better than GASNet and MPI-3.0 on both the Stampede and Titan experimental setups" (§III; 1 pair, MB/s)`,
		Holds: all(below(0, fabric.ProfGASNetIBV, fabric.ProfMV2XSHMEM, everyX), below(0, fabric.ProfMV2XMPI3, fabric.ProfMV2XSHMEM, everyX),
			below(2, fabric.ProfGASNetGemini, fabric.ProfCraySHMEM, everyX), below(2, fabric.ProfCrayMPICH, fabric.ProfCraySHMEM, everyX))},
	{ID: "fig3.shmem-best-contended", Figure: "fig3",
		Text: `the same with inter-node contention (§III; 16 pairs, MB/s per pair)`,
		Holds: all(below(1, fabric.ProfGASNetIBV, fabric.ProfMV2XSHMEM, everyX), below(1, fabric.ProfMV2XMPI3, fabric.ProfMV2XSHMEM, everyX),
			below(3, fabric.ProfGASNetGemini, fabric.ProfCraySHMEM, everyX), below(3, fabric.ProfCrayMPICH, fabric.ProfCraySHMEM, everyX))},

	{ID: "fig6.contig-gain", Figure: "fig6",
		Text:  `"average of 8 % improvement" of UHCAF over Cray SHMEM on UHCAF over GASNet, contiguous put (§V-B1; bandwidth geomean, 1 pair)`,
		Value: gainPct(geo(0, craySHMEM, uhGASNet)), Paper: 8, Lo: 2, Hi: 50, Unit: " %"},
	{ID: "fig6.2dim-vs-craycaf", Figure: "fig6",
		Text:  `2dim_strided "around 3x improvement in bandwidth … compared to Cray CAF" (§V-B2; geomean over strides)`,
		Value: geo(2, craySHMEM+twoDim, crayCAF), Paper: 3, Lo: 1.8, Hi: 6, Unit: "×"},
	{ID: "fig6.2dim-vs-naive", Figure: "fig6",
		Text:  `"9x improvement compared to the naive implementation" (§V-B2; geomean over strides)`,
		Value: geo(2, craySHMEM+twoDim, craySHMEM+naive), Paper: 9, Lo: 4, Hi: 18, Unit: "×"},
	{ID: "fig6.strided-order", Figure: "fig6",
		Text:  `2dim_strided above Cray CAF above naive at every stride (§V-B2, Fig 6c; MB/s)`,
		Holds: all(below(2, craySHMEM+naive, crayCAF, everyX), below(2, crayCAF, craySHMEM+twoDim, everyX))},
	{ID: "fig6.stride-decline", Figure: "fig6",
		Text:  `strided bandwidth declines as the stride grows (cache locality, §V-B2; MB/s over stride)`,
		Holds: trend(2, craySHMEM+twoDim, false)},

	{ID: "fig7.contig-gain", Figure: "fig7",
		Text:  `the same "average of 8 % improvement" on Stampede: UHCAF over MVAPICH2-X SHMEM on UHCAF over GASNet (§V-B1; bandwidth geomean, 1 pair)`,
		Value: gainPct(geo(0, mv2x, uhGASNet)), Paper: 8, Lo: 2, Hi: 50, Unit: " %"},
	{ID: "fig7.naive-equals-2dim", Figure: "fig7",
		Text:  `"UHCAF over MVAPICH2-X SHMEM for the naive and the 2dim_strided implementations are the same, because shmem_iput … performs multiple shmem_putmem calls underneath" (§V-B2; naive/2dim bandwidth)`,
		Value: geo(2, mv2x+naive, mv2x+twoDim), Paper: 1, Lo: 0.9, Hi: 1.1, Unit: "×"},

	{ID: "fig8.vs-craycaf", Figure: "fig8",
		Text:  `"UHCAF over Cray SHMEM is 22 % faster than … Cray CAF" (§V-B3; time geomean over image counts)`,
		Value: fasterPct(geo(0, crayCAF, craySHMEM)), Paper: 22, Lo: 20, Hi: 40, Unit: " %"},
	{ID: "fig8.vs-gasnet", Figure: "fig8",
		Text:  `"11 % faster than … UHCAF over GASNet" (§V-B3; time geomean over image counts)`,
		Value: fasterPct(geo(0, uhGASNet, craySHMEM)), Paper: 11, Lo: 5, Hi: 20, Unit: " %"},
	{ID: "fig8.shmem-fastest", Figure: "fig8",
		Text:  `UHCAF over Cray SHMEM is the fastest of the three at every image count (§V-B3, Fig 8; ms)`,
		Holds: all(below(0, craySHMEM, uhGASNet, everyX), below(0, craySHMEM, crayCAF, everyX))},
	{ID: "fig8.grows", Figure: "fig8",
		Text:  `execution time grows with the image count (§V-B3; ms over images)`,
		Holds: trend(0, craySHMEM, true)},

	{ID: "fig9.vs-craycaf", Figure: "fig9", Unstable: unstableDHT,
		Text:  `"28 % faster than the Cray CAF implementation" (§V-C; time geomean over image counts)`,
		Value: fasterPct(geo(0, crayCAF, craySHMEM)), Paper: 28, Lo: 10, Hi: 45, Unit: " %"},
	{ID: "fig9.vs-gasnet", Figure: "fig9", Unstable: unstableDHT,
		Text:  `"18 % faster than the UHCAF over GASNet implementation" (§V-C; time geomean over image counts)`,
		Value: fasterPct(geo(0, uhGASNet, craySHMEM)), Paper: 18, Lo: 5, Hi: 35, Unit: " %"},

	{ID: "fig10.ahead-from-16", Figure: "fig10",
		Text:  `"performance of UHCAF over MVAPICH2-X SHMEM is better than UHCAF over GASNet, when the number of images ≥ 16" (§V-D; MFLOPS)`,
		Holds: below(0, uhGASNet, mv2x, [2]float64{16, math.Inf(1)})},
	{ID: "fig10.avg-gain", Figure: "fig10",
		Text:  `"on an average, we obtain around 6 % better performance" (§V-D; MFLOPS geomean over image counts)`,
		Value: gainPct(geo(0, mv2x, uhGASNet)), Paper: 6, Lo: 2, Hi: 15, Unit: " %"},
	{ID: "fig10.max-gain", Figure: "fig10",
		Text:  `"and to the maximum we obtain 22 %" (§V-D; largest lead at one image count)`,
		Value: maxGainPct(0, mv2x, uhGASNet), Paper: 22, Lo: 10, Hi: 35, Unit: " %"},
	{ID: "fig10.scales", Figure: "fig10",
		Text:  `MFLOPS grow with the image count (§V-D, Fig 10)`,
		Holds: trend(0, mv2x, true)},

	{ID: "matrix.naive-wins", Figure: "matrix",
		Text:  `"the best implementation for this benchmark is CAF over MVAPICH2-X SHMEM using the naïve algorithm": on matrix-oriented strides one putmem per contiguous block beats shmem_iput (§V-D; MB/s)`,
		Holds: below(0, mv2x+twoDim, mv2x+naive, everyX)},

	{ID: "overlap.micro", Figure: "overlap",
		Text:  `put_nbi; compute; quiet against put; quiet; compute, the compute as long as the wire time: ideal overlap halves the total (beyond paper; blocking/overlap geomean over 1 KiB–1 MiB, bound 2×)`,
		Value: geo(0, "blocking put", "put_nbi overlap"), Lo: 1.5, Hi: 2, Unit: "×"},
	{ID: "overlap.himeno", Figure: "overlap",
		Text:  `Himeno's overlapped halo exchange beats the blocking schedule on every machine while an image keeps interior planes to compute under the transfer (beyond paper; 2–16 images of 64 planes, ms)`,
		Holds: belowEach(1, machines, " overlap", " blocking", [2]float64{2, 16})},
	{ID: "overlap.no-interior", Figure: "overlap",
		Text:  `recorded, not hidden: at 32 images (2 planes each) nothing is left to hide the halos under, and the blocking schedule wins on every machine (ms)`,
		Holds: belowEach(1, machines, " blocking", " overlap", [2]float64{32, 32})},
	{ID: "overlap.transports", Figure: "overlap",
		Text: `on Stampede the transports with a nonblocking surface (SHMEM and GASNet put_nbi) gain from the overlap schedule at 2–16 images, and over the sweep gain more than MPI-3, whose PutAsync degrades to a blocking put (beyond paper; blocking/overlap geomean)`,
		Holds: func(v view) (string, bool) {
			trs := transports()
			detail, ok := all(below(2, trs[0]+" overlap", trs[0]+" blocking", [2]float64{2, 16}),
				below(2, trs[1]+" overlap", trs[1]+" blocking", [2]float64{2, 16}))(v)
			var hide [3]float64
			for i, tr := range trs {
				hide[i] = geo(2, tr+" blocking", tr+" overlap")(v)
			}
			return fmt.Sprintf("%s; gain %.3g× %s, %.3g× %s, %.3g× %s", detail, hide[0], trs[0], hide[1], trs[1], hide[2], trs[2]),
				ok && hide[0] > hide[2] && hide[1] > hide[2]
		}},

	{ID: "signal.zero-barriers", Figure: "signal",
		Text: `zero steady-state barriers: the signal schedule's barrier count is flat in the iteration count while blocking and barrier-paced overlap grow (beyond paper; barriers of image 1)`,
		Holds: func(v view) (string, bool) {
			sig, blk, bar := v.series(1, "signal overlap"), v.series(1, "blocking"), v.series(1, "barrier overlap")
			ok := true
			for i := 1; i < len(sig.Rows); i++ {
				ok = ok && sig.Rows[i].Value == sig.Rows[0].Value &&
					blk.Rows[i].Value > blk.Rows[i-1].Value && bar.Rows[i].Value > bar.Rows[i-1].Value
			}
			last := len(sig.Rows) - 1
			return fmt.Sprintf("signal %g at every iteration count; blocking %g → %g, barrier-paced %g → %g over %g → %g iterations",
				sig.Rows[0].Value, blk.Rows[0].Value, blk.Rows[last].Value, bar.Rows[0].Value, bar.Rows[last].Value, sig.Rows[0].X, sig.Rows[last].X), ok
		}},
	{ID: "signal.beats-barrier", Figure: "signal",
		Text:  `the signal schedule beats the barrier-paced overlap on every machine wherever interior planes hide the neighbour wavefront (beyond paper; 2–8 images, ms)`,
		Holds: belowEach(0, machines, " signal", " barrier", [2]float64{2, 8})},
	{ID: "signal.crossover", Figure: "signal",
		Text:  `recorded, not hidden: from 16 images (≤ 4 planes each) the serialised per-neighbour signal waits outgrow one hardware barrier and the barrier-paced schedule wins — the case himeno.Params.OverlapBarrier is kept for (ms)`,
		Holds: belowEach(0, machines, " barrier", " signal", [2]float64{16, 32})},
	{ID: "signal.transports", Figure: "signal",
		Text:  `dropping the per-iteration barrier wins on all three Stampede transports, MPI-3's blocking notify included (beyond paper; 2–8 images, ms)`,
		Holds: belowEach(2, transports, " signal", " barrier", [2]float64{2, 8})},

	{ID: "quiet.conservative-cost", Figure: "quiet",
		Text:  `the price of CAF's ordering over OpenSHMEM's weak completion: with a quiet after every put a stream of 8-byte puts takes an order of magnitude longer than with completion deferred to the next synchronisation point (§IV-B; conservative/deferred time)`,
		Value: geo(0, "conservative", "deferred"), Lo: 8, Hi: 15, Unit: "×"},
	{ID: "basedim.locality", Figure: "basedim",
		Text:  `why 2dim_strided picks its base dimension among the first two: unrestricted best-dimension issues fewer calls by walking the outermost dimension and still loses, to that dimension's memory stride (§IV-C; bestdim/2dim time)`,
		Value: geo(0, "bestdim", "2dim"), Lo: 1.05, Hi: 1.25, Unit: "×"},
	{ID: "locks.mcs-bounded", Figure: "locks",
		Text: `the MCS adaptation needs at most two remote atomics per acquisition (the enqueueing swap, the detaching compare-and-swap) however many images contend, a lock spun on remotely at least two (§IV-D; holds under any arrival order)`,
		Holds: func(v view) (string, bool) {
			mcs, spin, array := v.series(0, "mcs").Rows[0].Value, v.series(0, "naive-spin").Rows[0].Value, v.series(0, "global-array").Rows[0].Value
			if !(0 < mcs && mcs <= 2 && spin >= 2 && array >= 2) {
				return fmt.Sprintf("mcs %.3f, naive-spin %.3f, global-array %.3f", mcs, spin, array), false
			}
			return "mcs ≤ 2 ≤ naive-spin, global-array (the panel's three counts follow arrival order at the contended word and differ run to run — ROADMAP P0, leak (a))", true
		}},
}
