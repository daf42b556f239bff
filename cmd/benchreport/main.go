// benchreport runs the wall-clock benchmark suite (bench_wallclock_test.go)
// and records the results next to the seed baseline, so host-time performance
// of the simulator is tracked across PRs the same way the virtual-time
// figures are tracked by the golden tests.
//
// Usage (from the module root):
//
//	benchreport                    # run the suite, write BENCH_9.json
//	benchreport -out other.json    # write elsewhere
//	benchreport -count 5           # more repetitions (min is kept)
//	benchreport -benchtime 200x    # fixed iteration counts instead of 1s
//	benchreport -procs 4           # pin the child go test to 4 OS procs
//	benchreport -check             # quick alloc-regression gate for CI
//	benchreport -transports        # run only the transport matrix (BENCH_10.json)
//
// The baseline embedded below was measured on the PR 7 tree (the
// BENCH_5.json current column) with the same benchmark definitions, so the
// speedup column is like-for-like. Each benchmark is run -count times and the
// per-metric minimum is kept: the dominant noise source is GC scheduling
// across whole-world constructions, which only ever inflates a run, never
// deflates it.
//
// The scale sweep (bench_scale_test.go, BenchmarkWallclockScale) is run by
// hand with go test -bench; the committed BENCH_9.json still carries the
// two-engine sweep of its day in a "scale" section this tool no longer writes.
//
// Besides BENCH_9.json, every full run (and -transports alone) writes the
// transport matrix to BENCH_10.json: the Himeno workload's host cost on each
// CAF transport backend (shmem, gasnet, mpi3), from the sub-benchmarks of
// BenchmarkWallclockHimenoTransport.
//
// -check is the CI gate, two deliberately-narrow validations: it reruns only
// the contiguous-put benchmark and fails if allocs/op rises above zero (the
// steady-state target the pooled marshalling buffers guarantee — timing gates
// are too noisy for CI, allocation counts are exact); and it validates the
// committed transport matrix (all three Himeno rows, mpi3 included, must be
// present with real measurements). The file check is about completeness only:
// a number read out of a committed file says nothing about the code, so no
// speed floor is gated on one (the benchmark/ instrument measures the live
// tree).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
)

// Result is one benchmark's measured cost per operation.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// seedBaseline holds the fixed 256-image suite as measured on the PR 7 tree
// (the BENCH_5 "current" column, i.e. after the PR 7 reliability work)
// with the same Go toolchain and machine class. Regenerate by checking out
// the parent commit and running this tool there.
var seedBaseline = map[string]Result{
	"WallclockContigPut":      {NsPerOp: 2414, BytesPerOp: 0, AllocsPerOp: 0},
	"WallclockStridedPut":     {NsPerOp: 77374, BytesPerOp: 568, AllocsPerOp: 6},
	"WallclockLockContention": {NsPerOp: 1286649, BytesPerOp: 1408192, AllocsPerOp: 1404},
	"WallclockDHT":            {NsPerOp: 5567336, BytesPerOp: 5486945, AllocsPerOp: 8825},
	"WallclockHimeno":         {NsPerOp: 138658796, BytesPerOp: 36636618, AllocsPerOp: 168260},
	"WallclockHimenoOverlap":  {NsPerOp: 130367407, BytesPerOp: 42840333, AllocsPerOp: 209093},
	"WallclockHimenoSignal":   {NsPerOp: 141560786, BytesPerOp: 44889944, AllocsPerOp: 240251},
}

type report struct {
	Schema      string             `json:"schema"`
	BaselineRef string             `json:"baseline_ref"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Count       int                `json:"count"`
	Benchtime   string             `json:"benchtime"`
	Baseline    map[string]Result  `json:"baseline"`
	Current     map[string]Result  `json:"current"`
	Speedup     map[string]float64 `json:"speedup"`
}

var benchLine = regexp.MustCompile(`^Benchmark(\w+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9]+) B/op\s+([0-9]+) allocs/op)?`)

// transportLine parses one transport-matrix row (the slash-structured
// sub-benchmarks of BenchmarkWallclockHimenoTransport, which the \w+? of
// benchLine cannot reach).
var transportLine = regexp.MustCompile(`^BenchmarkWallclockHimenoTransport/transport=(\w+)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op(?:\s+([0-9]+) B/op\s+([0-9]+) allocs/op)?`)

// transportReport is the BENCH_10.json shape: the Himeno workload's host cost
// per transport backend. Its own file (and schema) rather than a section of
// BENCH_9.json so the wallclock baseline history stays byte-stable.
type transportReport struct {
	Schema     string            `json:"schema"`
	Workload   string            `json:"workload"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Count      int               `json:"count"`
	Benchtime  string            `json:"benchtime"`
	Transports map[string]Result `json:"transports"`
}

// runTest invokes go test -bench and returns its stdout. procs > 0 pins the
// child test binary's GOMAXPROCS via the environment.
func runTest(pattern, benchtime string, count, procs int) (*bytes.Buffer, error) {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem",
		"-benchtime", benchtime, "-count", strconv.Itoa(count), "."}
	cmd := exec.Command("go", args...)
	cmd.Env = os.Environ()
	if procs > 0 {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(procs))
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %v: %w", args, err)
	}
	return &out, nil
}

// runSuite runs the fixed suite and returns the per-benchmark minimum over
// count repetitions.
func runSuite(pattern, benchtime string, count, procs int) (map[string]Result, error) {
	out, err := runTest(pattern, benchtime, count, procs)
	if err != nil {
		return nil, err
	}
	results := map[string]Result{}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		r := Result{}
		r.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[3], 10, 64)
			r.AllocsPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		prev, seen := results[m[1]]
		if !seen {
			results[m[1]] = r
			continue
		}
		if r.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = r.NsPerOp
		}
		if r.BytesPerOp < prev.BytesPerOp {
			prev.BytesPerOp = r.BytesPerOp
		}
		if r.AllocsPerOp < prev.AllocsPerOp {
			prev.AllocsPerOp = r.AllocsPerOp
		}
		results[m[1]] = prev
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark results parsed from go test output")
	}
	return results, nil
}

// runTransports runs the transport-matrix benchmark and returns the
// per-transport minimum over count repetitions, keyed "shmem"/"gasnet"/"mpi3".
func runTransports(benchtime string, count, procs int) (map[string]Result, error) {
	out, err := runTest("^BenchmarkWallclockHimenoTransport$", benchtime, count, procs)
	if err != nil {
		return nil, err
	}
	results := map[string]Result{}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		m := transportLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		r := Result{}
		r.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			r.BytesPerOp, _ = strconv.ParseInt(m[3], 10, 64)
			r.AllocsPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		prev, seen := results[m[1]]
		if !seen {
			results[m[1]] = r
			continue
		}
		if r.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = r.NsPerOp
		}
		if r.BytesPerOp < prev.BytesPerOp {
			prev.BytesPerOp = r.BytesPerOp
		}
		if r.AllocsPerOp < prev.AllocsPerOp {
			prev.AllocsPerOp = r.AllocsPerOp
		}
		results[m[1]] = prev
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no transport-matrix results parsed from go test output")
	}
	return results, nil
}

// writeTransportReport records the matrix as BENCH_10.json and prints it.
func writeTransportReport(path, benchtime string, count, childProcs int, tr map[string]Result) error {
	rep := transportReport{
		Schema:     "cafshmem-transport-bench/1",
		Workload:   "Himeno 16x256x8, 20 iters, 256 images, naive strided (BenchmarkWallclockHimenoTransport)",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: childProcs,
		Count:      count,
		Benchtime:  benchtime,
		Transports: tr,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(tr))
	for n := range tr {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\n%-12s %14s %12s %10s\n", "transport", "ns/op", "B/op", "allocs/op")
	for _, n := range names {
		c := tr[n]
		fmt.Printf("%-12s %14.0f %12d %10d\n", n, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp)
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// check is the CI regression gate: the contiguous-put fast path must stay
// allocation-free per operation (measured live), and the committed transport
// matrix must be complete (read from the file — rerunning it is minutes of
// work the gate cannot afford).
func check(transportPath string) error {
	res, err := runSuite("^BenchmarkWallclockContigPut$", "300x", 1, 0)
	if err != nil {
		return err
	}
	r, ok := res["WallclockContigPut"]
	if !ok {
		return fmt.Errorf("WallclockContigPut missing from bench output")
	}
	if r.AllocsPerOp > 0 {
		return fmt.Errorf("contiguous put regressed to %d allocs/op (want 0): a hot-path allocation crept in", r.AllocsPerOp)
	}
	fmt.Printf("benchreport -check: contiguous put %d allocs/op (%.0f ns/op) — ok\n", r.AllocsPerOp, r.NsPerOp)
	return checkTransportReport(transportPath)
}

// checkTransportReport validates the committed transport matrix: all three
// backend rows — mpi3 above all, the row this floor exists for — must be
// present with real measurements, so the matrix cannot silently lose a
// transport when the benchmark or the parser changes.
func checkTransportReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("transport gate: %w (regenerate with benchreport -transports)", err)
	}
	var rep transportReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("transport gate: %s: %w", path, err)
	}
	for _, name := range []string{"shmem", "gasnet", "mpi3"} {
		row, ok := rep.Transports[name]
		if !ok {
			return fmt.Errorf("transport gate: %s missing the %s Himeno row (matrix incomplete)", path, name)
		}
		if row.NsPerOp <= 0 {
			return fmt.Errorf("transport gate: %s has an empty %s Himeno row", path, name)
		}
	}
	fmt.Printf("benchreport -check: %s carries all three transport rows (mpi3 %.0f ns/op) — ok\n",
		path, rep.Transports["mpi3"].NsPerOp)
	return nil
}

func main() {
	out := flag.String("out", "BENCH_9.json", "report file to write")
	pattern := flag.String("bench",
		"^BenchmarkWallclock(ContigPut|StridedPut|LockContention|DHT|Himeno|HimenoOverlap|HimenoSignal)$",
		"fixed-suite benchmark regexp to run")
	benchtime := flag.String("benchtime", "1s", "per-benchmark measurement time (or Nx iterations)")
	count := flag.Int("count", 3, "repetitions per benchmark; the minimum is recorded")
	procs := flag.Int("procs", 0, "GOMAXPROCS for the child go test (0 = child default)")
	doCheck := flag.Bool("check", false, "run only the alloc-regression gate and exit")
	transportOut := flag.String("transportout", "BENCH_10.json", "transport-matrix report file (also the file -check validates)")
	transportsOnly := flag.Bool("transports", false, "run only the transport matrix and write -transportout")
	flag.Parse()

	if *doCheck {
		if err := check(*transportOut); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *transportsOnly {
		tr, err := runTransports(*benchtime, *count, *procs)
		if err == nil {
			err = writeTransportReport(*transportOut, *benchtime, *count, childGOMAXPROCS(*procs), tr)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cur, err := runSuite(*pattern, *benchtime, *count, *procs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	childProcs := childGOMAXPROCS(*procs)
	rep := report{
		Schema:      "cafshmem-wallclock-bench/2",
		BaselineRef: "PR 7 tree (BENCH_5.json current column; same toolchain and machine class)",
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  childProcs,
		Count:       *count,
		Benchtime:   *benchtime,
		Baseline:    seedBaseline,
		Current:     cur,
		Speedup:     map[string]float64{},
	}
	for name, b := range seedBaseline {
		if c, ok := cur[name]; ok && c.NsPerOp > 0 {
			rep.Speedup[name] = b.NsPerOp / c.NsPerOp
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}

	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-28s %14s %12s %10s %8s\n", "benchmark", "ns/op", "B/op", "allocs/op", "speedup")
	for _, n := range names {
		c := cur[n]
		sp := "-"
		if s, ok := rep.Speedup[n]; ok {
			sp = fmt.Sprintf("%.2fx", s)
		}
		fmt.Printf("%-28s %14.0f %12d %10d %8s\n", n, c.NsPerOp, c.BytesPerOp, c.AllocsPerOp, sp)
	}
	fmt.Printf("wrote %s\n", *out)

	// A full run refreshes the transport matrix too, so BENCH_9.json and
	// BENCH_10.json always describe the same tree.
	tr, err := runTransports(*benchtime, *count, *procs)
	if err == nil {
		err = writeTransportReport(*transportOut, *benchtime, *count, childProcs, tr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		os.Exit(1)
	}
}

// childGOMAXPROCS is the GOMAXPROCS the child test binary actually runs with,
// not this tool's own: -procs when pinned, the inherited environment override
// when set, the machine default otherwise.
func childGOMAXPROCS(procs int) int {
	if procs > 0 {
		return procs
	}
	n := runtime.NumCPU()
	if env := os.Getenv("GOMAXPROCS"); env != "" {
		if v, err := strconv.Atoi(env); err == nil && v > 0 {
			n = v
		}
	}
	return n
}
