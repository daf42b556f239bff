package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The tests drive every workload and the ladder at toyScale (16 images, two
// repetitions) in-process, and hold BENCHMARK.json, the program and
// golden.json to each other.

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadSpec(t *testing.T) *benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// toySeed differs from the seed golden.json was generated with, so every toy
// run also checks that the pinned values do not depend on the seed.
const toySeed = 7

var toy struct {
	once    sync.Once
	results map[string]*workloadResult
	ladder  metricSet
	err     error
}

func toyRun(t *testing.T) (map[string]*workloadResult, metricSet) {
	t.Helper()
	toy.once.Do(func() {
		gold, err := loadGolden()
		if err != nil {
			toy.err = err
			return
		}
		in := makeInputs(&toyScale, toySeed)
		toy.results = map[string]*workloadResult{}
		for _, w := range workloads {
			tr := newTracer()
			res := measure(w, &toyScale, in, gold.want(&toyScale, w.name), 2, 2, tr, tr.begin(-1, w.name))
			toy.results[w.name] = &res
		}
		lad, checks, err := runLadder(&toyScale, in, newTracer(), -1)
		if err != nil {
			toy.err = err
			return
		}
		if problems := verify(repOut{checks: checks}, gold.want(&toyScale, "ladder")); len(problems) > 0 {
			t.Errorf("toy ladder does not match golden.json: %v", problems)
		}
		toy.ladder = lad
	})
	if toy.err != nil {
		t.Fatal(toy.err)
	}
	return toy.results, toy.ladder
}

func TestBenchmarkJSONMeetsContract(t *testing.T) {
	spec := loadSpec(t)
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var gated []*workload
	for _, w := range workloads {
		if w.ungated == "" {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d it does not mark ungated", len(spec.Workloads), len(gated))
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default --seconds %d", spec.RunSeconds, defaultSeconds)
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != gated[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, gated[i].name)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		name(m.Name)
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound missing or outside 0..0.25", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end needs setup_s with unit s, better lower")
	}
	for _, m := range spec.PerLayer {
		name(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unitRE)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, p := range spec.Paths {
		for _, arg := range spec.Command {
			if strings.Contains(arg, "/") && !strings.HasPrefix(arg, p+"/") {
				t.Errorf("command argument %q names a path outside %q", arg, p)
			}
		}
	}
}

// sameMetrics checks that the emitted set is exactly the specified one, units
// included. (metricSet.put already panics on a name emitted twice.)
func sameMetrics(t *testing.T, what string, got metricSet, want []metricSpec) {
	t.Helper()
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s is in BENCHMARK.json but was not emitted", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s emitted in %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
	if len(got) != len(want) {
		names := map[string]bool{}
		for _, m := range want {
			names[m.Name] = true
		}
		for n := range got {
			if !names[n] {
				t.Errorf("%s: %s was emitted but is not in BENCHMARK.json", what, n)
			}
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	results, lad := toyRun(t)
	for _, w := range workloads {
		res := results[w.name]
		if res.Failed != 0 || res.Attempted != 4 { // warm-up + 2 timed + 1 traced
			t.Errorf("%s: failed %d of %d repetitions: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		e2e := endToEndMetrics(res)
		sameMetrics(t, w.name+" end_to_end", e2e, spec.EndToEnd)
		for n, m := range e2e {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, n, m.Value)
			}
		}
		sameMetrics(t, w.name+" per_layer", perLayerMetrics(res, &ladderResult{Metrics: lad}), spec.PerLayer)
		if w.pinsVirtual && res.VirtualMs <= 0 {
			t.Errorf("%s: no virtual_ms reported", w.name)
		}
		if len(res.SelfNs) == 0 {
			t.Errorf("%s: the traced repetition recorded no spans", w.name)
		}
	}
	if got := results["dht_contended_1k"]; got.LocksAcquired == 0 || got.Counts["amo"] == 0 {
		t.Errorf("dht_contended_1k: traced repetition saw %d locks, %d atomics", got.LocksAcquired, got.Counts["amo"])
	}
	if got := results["himeno_halo_256"].Counts; got["put"]+got["putv"] == 0 || got["barrier"] == 0 {
		t.Errorf("himeno_halo_256: caf.Tracer counts look empty: %v", got)
	}
}

func TestGoldenTripsOnWrongExpectation(t *testing.T) {
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	w := workloadByName("put_contig_2")
	want := map[string]string{}
	for k, v := range gold.want(&toyScale, w.name) {
		want[k] = v
	}
	want["virtual_ms"] = exact(1.5) // deliberately wrong
	res := measure(w, &toyScale, makeInputs(&toyScale, toySeed), want, 1, 1, nil, -1)
	if res.Attempted != 2 || res.Failed != 2 || res.Wrong != 2 {
		t.Fatalf("failed %d of %d repetitions, %d with a wrong output; want every one of 2 to fail as wrong", res.Failed, res.Attempted, res.Wrong)
	}
	if len(res.Failures) == 0 || !strings.Contains(res.Failures[0], "virtual_ms") {
		t.Errorf("failures do not name the mismatching value: %v", res.Failures)
	}
	if len(res.RunS) != 0 {
		t.Error("a failed repetition must not contribute a timing")
	}
	if got := verify(repOut{checks: map[string]string{"x": "1"}}, nil); len(got) == 0 {
		t.Error("a workload without a golden entry must not verify")
	}
	// A repetition that returns an error failed, but produced no wrong output.
	broken := &workload{name: "broken", run: func(job) (repOut, error) {
		return repOut{}, errors.New("image 3 failed")
	}}
	res = measure(broken, &toyScale, nil, want, 1, 1, nil, -1)
	if res.Attempted != 3 || res.Failed != 3 || res.Wrong != 0 || len(res.Reruns) != 0 {
		t.Errorf("erroring workload: failed %d of %d, %d wrong, %d run again; want 3 of 3, 0 wrong, none run again",
			res.Failed, res.Attempted, res.Wrong, len(res.Reruns))
	}
}

// A job the hang watchdog aborted is run again and reported as such; a world
// that aborts every time is a failed operation all the same.
func TestWatchdogAbortIsRunAgain(t *testing.T) {
	calls := 0
	abort := errors.New("pgas: deadlock detected by hang watchdog: all 2 alive PEs blocked with no pending events")
	flaky := &workload{name: "flaky", run: func(job) (repOut, error) {
		if calls++; calls == 2 || calls == 4 { // the warm-up and the first repetition, once each
			return repOut{}, abort
		}
		return repOut{ops: 1, checks: map[string]string{"x": "1"}}, nil
	}}
	res := measure(flaky, &toyScale, nil, map[string]string{"x": "1"}, 2, 1, nil, -1)
	if res.Attempted != 3 || res.Failed != 0 || len(res.Reruns) != 2 || len(res.RunS) != 2 || len(res.SetupS) != 1 {
		t.Errorf("flaky workload: failed %d of %d, %d run again, %d timings, %d probes; want 0 of 3, 2, 2, 1: %v",
			res.Failed, res.Attempted, len(res.Reruns), len(res.RunS), len(res.SetupS), res.Failures)
	}
	if got := perLayerMetrics(&res, &ladderResult{Reruns: []string{"ladder"}})["host.watchdog_reruns"].Value; got != 3 {
		t.Errorf("host.watchdog_reruns = %v, want the workload's 2 plus the ladder's 1", got)
	}
	dead := &workload{name: "dead", run: func(job) (repOut, error) { return repOut{}, abort }}
	res = measure(dead, &toyScale, nil, nil, 1, 0, nil, -1)
	if res.Attempted != 2 || res.Failed != 2 || res.Wrong != 0 || len(res.Reruns) != 2*maxReruns {
		t.Errorf("deadlocked workload: failed %d of %d, %d wrong, %d run again; want 2 of 2, 0 wrong, %d",
			res.Failed, res.Attempted, res.Wrong, len(res.Reruns), 2*maxReruns)
	}
}

// put_contig_2 reports the floor estimate as run_s, the plain median per layer.
func TestFloorEstimate(t *testing.T) {
	var f floor
	if f.seconds() != 0 {
		t.Error("no chunks must give no estimate")
	}
	f.add(1.0, map[string][]float64{"a": {0.2, 0.3}, "b": {0.1}}) // remainder 0.4
	f.add(2.0, map[string][]float64{"a": {0.5, 0.1}, "b": {0.4}}) // remainder 1.0
	f.add(9.0, nil)
	if got, want := f.seconds(), 0.7+2*0.1+1*0.1; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("floor = %v, want %v (median remainder + chunks per repetition x fastest chunk)", got, want)
	}
	results, lad := toyRun(t)
	res := results["put_contig_2"]
	if res.FloorS <= 0 || res.FloorS > median(res.RunS) {
		t.Errorf("put_contig_2: floor %v, median repetition %v; want 0 < floor <= median", res.FloorS, median(res.RunS))
	}
	if got := endToEndMetrics(res)["run_s"].Value; got != res.FloorS {
		t.Errorf("put_contig_2: run_s = %v, want the floor %v", got, res.FloorS)
	}
	if got := perLayerMetrics(res, &ladderResult{Metrics: lad})["host.run_s_median"].Value; got != median(res.RunS) {
		t.Errorf("put_contig_2: host.run_s_median = %v, want %v", got, median(res.RunS))
	}
	if other := results["himeno_halo_256"]; other.FloorS != 0 || endToEndMetrics(other)["run_s"].Value != median(other.RunS) {
		t.Error("a workload without chunks must report its median repetition as run_s")
	}
}

func TestCompareOfAFileWithItselfIsUnchanged(t *testing.T) {
	spec := loadSpec(t)
	results, lad := toyRun(t)
	var file resultsFile
	for run := 0; run < 3; run++ {
		rec := runRecord{Seed: uint64(run), Workloads: map[string]workloadRecord{}}
		for _, w := range workloads {
			res := results[w.name]
			rec.Workloads[w.name] = workloadRecord{
				Attempted: res.Attempted, Failed: res.Failed,
				EndToEnd: endToEndMetrics(res), PerLayer: perLayerMetrics(res, &ladderResult{Metrics: lad}),
			}
		}
		file.Runs = append(file.Runs, rec)
	}
	var out bytes.Buffer
	if bad := compareFiles(&out, spec, &file, &file); bad != 0 {
		t.Errorf("%d rows regressed or unresolved:\n%s", bad, out.String())
	}
	rows := len(workloads) * len(spec.EndToEnd)
	if got := strings.Count(out.String(), "  unchanged\n"); got != rows {
		t.Errorf("%d of %d rows are unchanged:\n%s", got, rows, out.String())
	}
}

func TestResultsFileContinuesOnlyItsOwnCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	h := hostInfo{NProc: 2, GOMAXPROCS: 2, CPU: "cpu", Go: "go", Commit: "aaaa"}
	f, err := openResults(path, h, 10)
	if err != nil || len(f.Runs) != 0 || f.Host != h {
		t.Fatalf("no file yet: got %d runs, host %v, error %v", len(f.Runs), f.Host, err)
	}
	f.Runs = append(f.Runs, runRecord{Seed: 1})
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if f, err = openResults(path, h, 10); err != nil || len(f.Runs) != 1 {
		t.Errorf("same commit: got %d runs, error %v; want the run already recorded", len(f.Runs), err)
	}
	if _, err = openResults(path, h, 5); err == nil {
		t.Error("another --seconds must not be appended to the file")
	}
	h.Commit = "bbbb"
	if _, err = openResults(path, h, 10); err == nil {
		t.Error("another commit must not be appended to the file")
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 100, 99, 101, 100, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{80, 120, 95, 130, 70, 110, 90, 125, 75, 105}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same", steady, steady, true, "unchanged"},
		{"within bound", steady, scaled(1.05), true, "unchanged"},
		{"worse beyond bound", steady, scaled(1.2), true, "regressed"},
		{"clearly better", steady, scaled(0.8), true, "improved"},
		{"higher is better, lower value", steady, scaled(0.8), false, "regressed"},
		{"spread wider than bound", noisy, noisy, true, "unresolved"},
		{"noisy but disjoint and better", noisy, scaled(0.5), true, "improved"},
		{"no samples", nil, steady, true, "unresolved"},
		{"from zero stays zero", []float64{0, 0, 0}, []float64{0, 0, 0}, true, "unchanged"},
		{"from zero to something", []float64{0, 0, 0}, []float64{1, 1, 1}, true, "regressed"},
	} {
		if got := verdict(c.a, c.b, c.lower, 0.08, 0); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// The allocation metrics' absolute allowance: 0 stays 0 under a stray
	// allocation, and only under that.
	slack := absSlack["allocs_per_simop"]
	zero := []float64{0, 0, 0}
	if got := verdict(zero, []float64{0.005, 0.005, 0.005}, true, 0.03, slack); got != "unchanged" {
		t.Errorf("0 -> 0.005 allocations per op: verdict %q, want unchanged", got)
	}
	if got := verdict(zero, []float64{0.02, 0.02, 0.02}, true, 0.03, slack); got != "regressed" {
		t.Errorf("0 -> 0.02 allocations per op: verdict %q, want regressed", got)
	}
}

func TestStatsMatchThePythonTheDriverUses(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles %v %v median %v", q1, q3, median(xs))
	}
	if v, q := tail(xs); v != 5.5 || q != 50 {
		t.Errorf("tail of 10 samples = %v at p%v, want the median at p50", v, q)
	}
	long := make([]float64, 100)
	for i := range long {
		long[i] = float64(i + 1)
	}
	if v, q := tail(long); v != 90 || q != 90 {
		t.Errorf("tail of 100 samples = %v at p%v, want 90 at p90", v, q)
	}
}

func TestRepetitionCountsAreFixedBySeconds(t *testing.T) {
	for _, w := range workloads {
		if a, b := w.reps(defaultSeconds), w.reps(defaultSeconds); a != b || a < minReps {
			t.Errorf("%s: reps(%d) = %d, %d", w.name, defaultSeconds, a, b)
		}
		if w.reps(0.001) != minReps {
			t.Errorf("%s: tiny --seconds must fall back to %d repetitions", w.name, minReps)
		}
	}
}

func TestInputsComeFromTheSeedOnly(t *testing.T) {
	a, b, c := makeInputs(&toyScale, 3), makeInputs(&toyScale, 3), makeInputs(&toyScale, 4)
	flat := func(in *inputs) []uint64 {
		var out []uint64
		for _, ks := range in.dhtKeys {
			out = append(out, ks...)
		}
		for _, o := range in.ladderOrder {
			out = append(out, uint64(o))
		}
		return out
	}
	same := func(x, y []uint64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(flat(a), flat(b)) {
		t.Error("the same seed gave different inputs")
	}
	if same(flat(a), flat(c)) {
		t.Error("different seeds gave the same inputs")
	}
	order := append([]int(nil), a.ladderOrder...)
	sort.Ints(order)
	for i, o := range order {
		if o != i {
			t.Fatalf("ladder order %v is not a permutation", a.ladderOrder)
		}
	}
}
