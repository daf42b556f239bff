package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is BENCHMARK.json: the one place bounds and directions live.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readJSON(path string, into interface{}) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// absSlack is what a metric may worsen by in absolute terms on top of its
// relative bound. ISSUE 11 gives the allocation metrics +0.01, so that a
// workload which allocates (almost) nothing per operation is not failed by
// one stray allocation, and one that reads exactly 0 has a bound at all.
var absSlack = map[string]float64{"allocs_per_simop": 0.01, "alloc_bytes_per_simop": 0.01}

// verdict compares one end-to-end metric on one workload between side A (the
// parent) and side B (the change), by the rule of the choosing-metrics guide
// (sections 6 and 8). B may be worse than A by at most allowed = bound x A's
// median + slack. A metric whose run-to-run spread is wider than that is
// unresolved unless the two sides do not overlap at all; a gain needs B to win
// nine tenths of the pairs and the medians to differ by more than A's own
// spread.
func verdict(a, b []float64, lowerIsBetter bool, bound, slack float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "unresolved"
	}
	sa, sb := sorted(a), sorted(b)
	medA := median(a)
	worse := median(b) - medA // > 0 means B is worse than A
	bBeatsAll, aBeatsAll := sb[len(sb)-1] < sa[0], sa[len(sa)-1] < sb[0]
	if !lowerIsBetter {
		worse = -worse
		bBeatsAll, aBeatsAll = aBeatsAll, bBeatsAll
	}
	allowed := bound*math.Abs(medA) + slack
	spread := iqr(a)
	if s := iqr(b); s > spread {
		spread = s
	}
	if len(a) > 1 && len(b) > 1 && spread > allowed {
		switch {
		case bBeatsAll:
			return "improved"
		case aBeatsAll && worse > allowed:
			return "regressed"
		}
		return "unresolved"
	}
	if worse > allowed {
		return "regressed"
	}
	if worse < 0 && -worse > iqr(a) && winShare(a, b, lowerIsBetter) >= 0.9 {
		return "improved"
	}
	return "unchanged"
}

// winShare is the share of index-matched pairs that side B wins; ties count
// for neither side.
func winShare(a, b []float64, lowerIsBetter bool) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	wins, decided := 0, 0
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			continue
		}
		decided++
		if (b[i] < a[i]) == lowerIsBetter {
			wins++
		}
	}
	if decided == 0 {
		return 0
	}
	return float64(wins) / float64(decided)
}

// samples collects one metric's value from every run of a results file.
func (f *resultsFile) samples(workload, metric string) []float64 {
	var xs []float64
	for _, r := range f.Runs {
		if m, ok := r.Workloads[workload].EndToEnd[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compareFiles writes one verdict row per end-to-end metric x workload and
// returns how many rows were regressed or unresolved.
func compareFiles(w io.Writer, spec *benchSpec, a, b *resultsFile) (bad int) {
	fmt.Fprintf(w, "%-20s %-24s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "B vs A", "spread", "bound", "verdict")
	for _, wl := range workloads { // the ungated ones too
		for _, ms := range spec.EndToEnd {
			xa, xb := a.samples(wl.name, ms.Name), b.samples(wl.name, ms.Name)
			bound := 0.0
			if ms.Bound != nil {
				bound = *ms.Bound
			}
			v := verdict(xa, xb, ms.Better != "higher", bound, absSlack[ms.Name])
			if v == "regressed" || v == "unresolved" {
				bad++
			}
			medA, medB := median(xa), median(xb)
			delta := 0.0
			if medA != 0 {
				delta = 100 * (medB - medA) / math.Abs(medA)
			}
			spread := iqrShare(xa)
			if s := iqrShare(xb); s > spread {
				spread = s
			}
			fmt.Fprintf(w, "%-20s %-24s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s\n",
				wl.name, ms.Name, medA, medB, delta, 100*spread, 100*bound, v)
		}
	}
	// Failures are part of the comparison: a gain does not count when more
	// operations fail than at the parent.
	fails := func(f *resultsFile) map[string][2]int {
		out := map[string][2]int{}
		for _, r := range f.Runs {
			for name, wr := range r.Workloads {
				c := out[name]
				out[name] = [2]int{c[0] + wr.Failed, c[1] + wr.Attempted}
			}
		}
		return out
	}
	fa, fb := fails(a), fails(b)
	names := make([]string, 0, len(fb))
	for n := range fb {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-20s failed/attempted        A %d/%d   B %d/%d\n", n, fa[n][0], fa[n][1], fb[n][0], fb[n][1])
		if fb[n][0] > fa[n][0] {
			bad++
		}
	}
	return bad
}

// compareMain reads the bounds and directions from BENCHMARK.json in the
// current directory, the root of the checkout.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	var spec benchSpec
	var a, b resultsFile
	for _, l := range []struct {
		path string
		into interface{}
	}{{specPath, &spec}, {args[0], &a}, {args[1], &b}} {
		if err := readJSON(l.path, l.into); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
	}
	fmt.Printf("A: %s (%d runs, commit %s)\nB: %s (%d runs, commit %s)\n", args[0], len(a.Runs), a.Host.Commit, args[1], len(b.Runs), b.Host.Commit)
	if bad := compareFiles(os.Stdout, &spec, &a, &b); bad > 0 {
		fmt.Printf("%d rows regressed, unresolved or failing\n", bad)
		return 1
	}
	fmt.Println("no row regressed or unresolved")
	return 0
}
