// Command benchmark is the repository's one performance instrument: six named
// workloads, host-cost end-to-end metrics verified against pinned goldens,
// and a traced run that times every layer's public functions from outside.
// See README.md in this directory.
//
//	go run ./benchmark                          all six workloads with their traced runs
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//	go run ./benchmark golden                   regenerate golden.json
//	go run ./benchmark compare A.json B.json    verdict per metric x workload
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const (
	defaultSeconds = 15
	goldenPath     = "benchmark/golden.json" // relative to the root of the checkout, like specPath
	specPath       = "BENCHMARK.json"
)

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	if len(args) > 0 {
		switch args[0] {
		case "golden":
			return goldenMain()
		case "compare":
			return compareMain(args[1:])
		case "child":
			return childMain(args[1:])
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload and print one JSON result line (the driver's mode); empty runs all six, traced")
	seed := fs.Uint64("seed", 1, "drives every generated input (DHT key streams, ladder offset order)")
	seconds := fs.Float64("seconds", defaultSeconds, "sizes the FIXED repetition counts; not a time box")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	runs := fs.Int("runs", 1, "without -workload: complete sets of runs to record (run i uses seed+i)")
	out := fs.String("out", filepath.Join(buildDir(), "results.json"), "without -workload: results file for `compare`; runs of the same commit are appended to it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if runtime.NumCPU() < benchProcs {
		fmt.Fprintf(os.Stderr, "benchmark: needs %d CPUs, this host has %d\n", benchProcs, runtime.NumCPU())
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -runs must be positive")
		return 2
	}
	if err := os.MkdirAll(buildDir(), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var err error
	if *name == "" {
		err = fullMain(*seed, *seconds, *runs, *out)
	} else if w := workloadByName(*name); w != nil {
		err = driverMain(w, *seed, *seconds, *trace != 0)
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// buildDir is where the benchmark keeps everything it writes: inside the
// checkout, in the directory the driver names.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// hostInfo is recorded with every result so numbers are never read without
// the machine and the tree they came from.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func (h hostInfo) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q %s commit=%s", h.NProc, h.GOMAXPROCS, h.CPU, h.Go, h.Commit)
}

func host() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), GOMAXPROCS: benchProcs, CPU: "unknown", Go: runtime.Version(), Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Ask git rather than the binary's build info: run.sh builds without VCS
	// stamping, and `go run` of a dirty tree would name the wrong commit. Only
	// a checkout that is not a git repository (the driver's) reads "unknown".
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(rev))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			h.Commit += "+dirty"
		}
	}
	return h
}

// --- children -------------------------------------------------------------

// childMain is the re-exec'd half: one workload (or the ladder) per process,
// so RSS, GC state and sync.Pool warm-up never leak between workloads.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("name", "", "workload name, or ladder")
	seed := fs.Uint64("seed", 1, "input seed")
	reps := fs.Int("reps", 1, "timed repetitions")
	spans := fs.String("spans", "", "file that receives this child's trace events; a workload also adds its traced repetition")
	pid := fs.Int("pid", 1, "trace-event process id")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)
	gold, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	sc := &fullScale
	in := makeInputs(sc, *seed)
	var tr *tracer
	if *spans != "" {
		tr = newTracer()
	}
	var result interface{}
	root := tr.begin(-1, *name)
	if *name == "ladder" {
		res := ladderResult{Attempted: 1}
		m, checks, err := runLadder(sc, in, tr, root)
		for try := 0; watchdogAbort(err) && try < maxReruns; try++ {
			res.Reruns = append(res.Reruns, err.Error())
			m, checks, err = runLadder(sc, in, tr, root)
		}
		if err != nil {
			res.Failures = append(res.Failures, err.Error())
		} else {
			res.Metrics = m
			res.Failures = verify(repOut{checks: checks}, gold.want(sc, "ladder"))
			if len(res.Failures) > 0 {
				res.Wrong = 1
			}
		}
		if len(res.Failures) > 0 {
			res.Failed = 1
		}
		result = res
	} else if w := workloadByName(*name); w != nil {
		result = measure(w, sc, in, gold.want(sc, w.name), *reps, w.probes, tr, root)
	} else {
		fmt.Fprintf(os.Stderr, "benchmark child: unknown workload %q\n", *name)
		return 2
	}
	tr.end(root)
	if tr != nil {
		f, err := os.Create(*spans)
		if err == nil {
			err = tr.writeEvents(f, *pid)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(result); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

// ladderResult is what the ladder child reports.
type ladderResult struct {
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Wrong     int       `json:"wrong"`
	Failures  []string  `json:"failures,omitempty"`
	Reruns    []string  `json:"reruns,omitempty"` // see watchdogAbort
	Metrics   metricSet `json:"metrics"`
}

// spawn re-executes this binary as a child, waits for it to end, and decodes
// its one JSON result into into. With traced set the child leaves its trace
// events in the returned part file, named after this process and pid so that
// concurrent invocations sharing a build directory never collide.
func spawn(into interface{}, name string, seed uint64, reps int, traced bool, pid int) (part string, err error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	if traced {
		part = filepath.Join(buildDir(), fmt.Sprintf("spans-%d-%d.part", os.Getpid(), pid))
	}
	cmd := exec.Command(exe, "child", "-name", name, "-seed", fmt.Sprint(seed), "-reps", fmt.Sprint(reps),
		"-spans", part, "-pid", fmt.Sprint(pid))
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return part, fmt.Errorf("child %s: %w", name, err)
	}
	return part, json.Unmarshal(outBytes, into)
}

// --- one workload, the way both modes run it --------------------------------

// workloadRecord is one run of one workload as results.json stores it and as
// the driver's JSON line is derived from it.
type workloadRecord struct {
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Wrong     int       `json:"wrong"` // of Failed: repetitions whose output differs from the golden
	Failures  []string  `json:"failures,omitempty"`
	Reruns    []string  `json:"reruns,omitempty"` // jobs the hang watchdog aborted, each run again (see watchdogAbort)
	Samples   int       `json:"samples"`          // timed repetitions behind the medians
	Probes    int       `json:"probes"`           // set-up probes behind setup_s
	EndToEnd  metricSet `json:"end_to_end"`
	PerLayer  metricSet `json:"per_layer,omitempty"` // traced runs only

	selfNs map[string]float64 // traced runs: harness-span self time by name, for display
}

// runWorkload runs w in its own child at the repetition count --seconds
// fixes. With lad non-nil the run is traced: the child adds one traced
// repetition after the timed ones, the record gains the per-layer metrics
// (the workload's own rows plus the ladder's, which are workload-independent)
// and the child's spans are left in the returned part file. End-to-end
// metrics always come from the untraced repetitions.
func runWorkload(w *workload, seed uint64, seconds float64, lad *ladderResult, pid int) (workloadRecord, string, error) {
	var res workloadResult
	part, err := spawn(&res, w.name, seed, w.reps(seconds), lad != nil, pid)
	if err != nil {
		return workloadRecord{}, part, err
	}
	rec := workloadRecord{
		Attempted: res.Attempted, Failed: res.Failed, Wrong: res.Wrong, Failures: res.Failures, Reruns: res.Reruns,
		Samples: len(res.RunS), Probes: len(res.SetupS),
		EndToEnd: endToEndMetrics(&res), selfNs: res.SelfNs,
	}
	if lad != nil {
		rec.PerLayer = perLayerMetrics(&res, lad)
	}
	return rec, part, nil
}

// report prints one workload's record: failures, every end-to-end metric and,
// for a traced run, the per-layer rows that are the workload's own.
func (rec workloadRecord) report(f io.Writer, name string, lad *ladderResult) {
	fmt.Fprintf(f, "\n%s — failed %d of %d repetitions (%d with a wrong output); medians over %d timed repetitions, %d set-up probes\n",
		name, rec.Failed, rec.Attempted, rec.Wrong, rec.Samples, rec.Probes)
	for _, msg := range rec.Failures {
		fmt.Fprintf(f, "  FAILED: %s\n", msg)
	}
	printReruns(f, rec.Reruns)
	printMetrics(f, rec.EndToEnd)
	if lad == nil {
		return
	}
	fmt.Fprintln(f, "  per-layer (traced repetition counts, computed attribution, host):")
	own := metricSet{}
	for n, v := range rec.PerLayer {
		if _, rung := lad.Metrics[n]; !rung {
			own[n] = v
		}
	}
	printMetrics(f, own)
	names := make([]string, 0, len(rec.selfNs))
	for n := range rec.selfNs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return rec.selfNs[names[i]] > rec.selfNs[names[j]] })
	fmt.Fprintln(f, "  span self time, whole child process (span - children):")
	for _, n := range names {
		fmt.Fprintf(f, "    %-34s %12.3f ms\n", n, rec.selfNs[n]/1e6)
	}
}

func (lad *ladderResult) report(f io.Writer) {
	fmt.Fprintf(f, "\nladder — failed %d of %d; ns and allocations per call, single origin, 2-PE worlds on Cray XC30\n", lad.Failed, lad.Attempted)
	for _, msg := range lad.Failures {
		fmt.Fprintf(f, "  FAILED: %s\n", msg)
	}
	printReruns(f, lad.Reruns)
	printMetrics(f, lad.Metrics)
}

func printReruns(f io.Writer, reruns []string) {
	for _, msg := range reruns {
		fmt.Fprintf(f, "  RUN AGAIN after a hang-watchdog abort (host stall, ROADMAP P0): %s\n", msg)
	}
}

func printMetrics(f io.Writer, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-36s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

// --- the driver's mode: one workload, one JSON line ------------------------

// resultLine is the last line of standard output in the driver's mode.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func driverMain(w *workload, seed uint64, seconds float64, traced bool) error {
	fmt.Fprintf(os.Stderr, "benchmark: %s seed=%d seconds=%g traced=%v | %s\n", w.name, seed, seconds, traced, host())
	var lad *ladderResult
	var parts []string
	if traced {
		lad = new(ladderResult)
		part, err := spawn(lad, "ladder", seed, 0, true, 2)
		if err != nil {
			return err
		}
		parts = append(parts, part)
	}
	rec, part, err := runWorkload(w, seed, seconds, lad, 1)
	if err != nil {
		return err
	}
	rec.report(os.Stderr, w.name, lad)
	wrong := rec.Wrong
	line := resultLine{Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.EndToEnd}
	if traced {
		lad.report(os.Stderr)
		line.Attempted += lad.Attempted
		line.Failed += lad.Failed
		wrong += lad.Wrong
		line.Metrics = rec.PerLayer
		traceOut := filepath.Join(buildDir(), "trace-"+w.name+".json")
		if err := writeTraceFile(traceOut, nil, append(parts, part)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchmark: spans written to %s\n", traceOut)
	}
	// correct says every output the program produced was verified; a
	// repetition that returned an error produced none and counts under failed.
	line.Correct = wrong == 0
	return json.NewEncoder(os.Stdout).Encode(line)
}

// --- the full run: every workload, traced ----------------------------------

// resultsFile is what `compare` reads: one or more complete sets of runs.
type resultsFile struct {
	Host    hostInfo    `json:"host"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

type runRecord struct {
	Seed      uint64                    `json:"seed"`
	Workloads map[string]workloadRecord `json:"workloads"`
}

// openResults starts the results file at path, or continues the one already
// there: the host's speed drifts by up to 20 % within the hour, so the two
// sides of an A/B have to be measured alternately, a run at a time, each side
// appending to its own file. Runs of another commit, host or --seconds are
// never mixed in.
func openResults(path string, h hostInfo, seconds float64) (resultsFile, error) {
	fresh := resultsFile{Host: h, Seconds: seconds}
	var old resultsFile
	switch err := readJSON(path, &old); {
	case errors.Is(err, os.ErrNotExist):
		return fresh, nil
	case err != nil:
		return fresh, err
	case old.Host != h || old.Seconds != seconds:
		return fresh, fmt.Errorf("%s holds runs of %s at --seconds %g, this is %s at --seconds %g: remove it or name another -out",
			path, old.Host, old.Seconds, h, seconds)
	}
	return old, nil
}

func fullMain(seed uint64, seconds float64, runs int, out string) error {
	traceOut := filepath.Join(buildDir(), "trace.json")
	file, err := openResults(out, host(), seconds)
	if err != nil {
		return err
	}
	fmt.Printf("cafshmem benchmark: %s seconds=%g\n", file.Host, seconds)
	failed := 0
	for run := 0; run < runs; run++ {
		runSeed := seed + uint64(run)
		fmt.Printf("\n=== run %d of %d, seed %d ===\n", run+1, runs, runSeed)
		rec := runRecord{Seed: runSeed, Workloads: map[string]workloadRecord{}}
		own := newTracer()
		root := own.begin(-1, "bench")
		s := own.begin(root, "ladder")
		var lad ladderResult
		part, err := spawn(&lad, "ladder", runSeed, 0, true, len(workloads)+1)
		own.end(s)
		if err != nil {
			return err
		}
		parts := []string{part}
		for i, w := range workloads {
			s := own.begin(root, "workload "+w.name)
			wr, part, err := runWorkload(w, runSeed, seconds, &lad, i+1)
			own.end(s)
			if err != nil {
				return err
			}
			parts = append(parts, part)
			wr.report(os.Stdout, w.name, &lad)
			if w.ungated != "" {
				fmt.Printf("  not in BENCHMARK.json, so the driver does not gate it: %s\n", w.ungated)
			}
			rec.Workloads[w.name] = wr
			failed += wr.Failed
		}
		own.end(root)
		lad.report(os.Stdout)
		failed += lad.Failed
		// Results and spans are written after every run, so a later run that
		// dies costs only itself; the span file holds the latest run.
		file.Runs = append(file.Runs, rec)
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(b, '\n'), 0o644)
		}
		if err == nil {
			err = writeTraceFile(traceOut, own, parts)
		}
		if err != nil {
			return err
		}
	}
	fmt.Printf("\nresults: %s\nspans:   %s (Chrome trace-event JSON; open in chrome://tracing or ui.perfetto.dev)\n", out, traceOut)
	if failed > 0 {
		return fmt.Errorf("%d repetitions failed", failed)
	}
	return nil
}

func goldenMain() int {
	runtime.GOMAXPROCS(benchProcs)
	if err := generateGolden(goldenPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark golden:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchmark golden: wrote %s — rebuild before measuring (the file is embedded)\n", goldenPath)
	return 0
}
