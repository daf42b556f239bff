package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cafshmem/internal/caf"
)

// benchProcs is the GOMAXPROCS every measurement runs at: the reference box
// has two cores, and one core would hide everything the event engine's
// shared locks cost under real parallelism.
const benchProcs = 2

// workloadResult is what one workload's child process measured. End-to-end
// metrics are derived from the untraced repetitions only; the fields from
// TracedRunS on come from the single traced repetition that follows them.
type workloadResult struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Wrong     int      `json:"wrong"` // of Failed: ran to the end but produced a value that differs from the golden
	Failures  []string `json:"failures,omitempty"`
	Reruns    []string `json:"reruns,omitempty"` // jobs the hang watchdog aborted, each run again

	SetupS      []float64 `json:"setup_s"`
	SetupOps    int64     `json:"setup_ops"`
	RunS        []float64 `json:"run_s"`
	FloorS      float64   `json:"floor_s,omitempty"` // see floor; 0 where the job reports no chunks
	Ops         []float64 `json:"ops"`
	Allocs      []float64 `json:"allocs"`
	AllocBytes  []float64 `json:"alloc_bytes"`
	SetupAllocs []float64 `json:"setup_allocs"`
	VirtualMs   float64   `json:"virtual_ms"`
	PeakRSSMiB  float64   `json:"peak_rss_mib"`
	CPUSPerRep  float64   `json:"cpu_s_per_rep"`
	GCCPUPct    float64   `json:"gc_cpu_pct"`
	GCCycles    float64   `json:"gc_cycles_per_rep"`

	TracedRunS     float64            `json:"traced_run_s,omitempty"`
	PeakGoroutines float64            `json:"peak_goroutines,omitempty"`
	Counts         map[string]int64   `json:"counts,omitempty"` // caf.Tracer events per kind
	Bytes          map[string]int64   `json:"bytes,omitempty"`
	Atomics        int64              `json:"atomics,omitempty"`
	LocksAcquired  int64              `json:"locks_acquired,omitempty"`
	Extra          map[string]float64 `json:"extra,omitempty"`
	SelfNs         map[string]float64 `json:"self_ns,omitempty"` // harness-span self time by name
}

func readGCCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// pollPeakGoroutines samples the goroutine count until stopped and returns
// the high-water mark. Only the traced repetition runs it: a 200 µs ticker
// on a two-core box would perturb the timed repetitions.
func pollPeakGoroutines() (stop func() float64) {
	var peak atomic.Int64
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(200 * time.Microsecond)
		defer t.Stop()
		for {
			if g := int64(runtime.NumGoroutine()); g > peak.Load() {
				peak.Store(g)
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		<-finished
		return float64(peak.Load())
	}
}

// verify compares one repetition against the pinned goldens and the
// generated inputs, returning what mismatched (nil when it all agrees).
func verify(out repOut, want map[string]string) []string {
	problems := append([]string(nil), out.problems...)
	if want == nil {
		return append(problems, "no golden entry for this workload and scale")
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got, ok := out.checks[k]; !ok {
			problems = append(problems, fmt.Sprintf("%s: not produced, golden %s", k, want[k]))
		} else if got != want[k] {
			problems = append(problems, fmt.Sprintf("%s: got %s, golden %s", k, got, want[k]))
		}
	}
	for k := range out.checks {
		if _, ok := want[k]; !ok {
			problems = append(problems, fmt.Sprintf("%s: produced %s but not pinned in golden", k, out.checks[k]))
		}
	}
	return problems
}

// maxReruns bounds how often one job is run again after the hang watchdog
// aborted it; the abort after that counts as a failed operation.
const maxReruns = 2

// watchdogAbort reports whether err is the wall-clock hang watchdog (ROADMAP
// P0) poisoning a world. Its goroutine-engine detector sleeps ~80 ms and then
// trusts a snapshot, so a host that freezes the VM for that long while every
// image is parked (or woken but not yet scheduled) trips it on a healthy
// world: about one job in 10^4 on the shared reference box. That is the
// host's doing, not an output of the program, so the job is run again and the
// rerun is reported (Reruns, host.watchdog_reruns); a world that really
// deadlocks aborts every time and fails after maxReruns.
func watchdogAbort(err error) bool {
	return err != nil && strings.Contains(err.Error(), "hang watchdog")
}

// sample is one timed execution of a job.
type sample struct {
	out             repOut
	seconds         float64
	mallocs, bytes  float64
	gcCycles        uint32
	cpuS            float64 // user+system CPU-seconds of the process
	gcCPUS, allCPUS float64 // the Go runtime's GC and total CPU-seconds
}

// runJob executes and times j, running it again when the hang watchdog
// aborted it. Only the execution that is returned is timed; a traced job's
// spans and caf.Tracer counts keep what the aborted execution recorded.
func (res *workloadResult) runJob(w *workload, label string, j job) (sample, error) {
	var m0, m1 runtime.MemStats
	for try := 0; ; try++ {
		gc0, all0 := readGCCPU()
		cpu0 := cpuSeconds()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := w.run(j)
		dt := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		gc1, all1 := readGCCPU()
		if watchdogAbort(err) && try < maxReruns {
			res.Reruns = append(res.Reruns, fmt.Sprintf("%s: %v", label, err))
			continue
		}
		return sample{
			out: out, seconds: dt,
			mallocs: float64(m1.Mallocs - m0.Mallocs), bytes: float64(m1.TotalAlloc - m0.TotalAlloc),
			gcCycles: m1.NumGC - m0.NumGC,
			cpuS:     cpuSeconds() - cpu0, gcCPUS: gc1 - gc0, allCPUS: all1 - all0,
		}, err
	}
}

// floor estimates what one repetition takes at the fastest speed the host
// showed during the run, for a job whose steady state the harness can time in
// short chunks (put_contig_2: every 1000 puts). The shared reference box
// switches between discrete speeds, up to 2x apart, several times a second
// and stays slow for up to a minute, so the median repetition of a run says
// which speed the host mostly ran at, not what the code costs; the fastest
// millisecond chunk of several thousand almost always catches the undisturbed
// speed. The estimate is the median un-chunked remainder of a repetition
// (world set-up, synchronisation, teardown) plus, per kind of chunk, the
// chunks in a repetition times the fastest chunk of the run.
type floor struct {
	remainders []float64
	perRep     map[string]int
	fastest    map[string]float64
}

func (f *floor) add(seconds float64, chunks map[string][]float64) {
	if len(chunks) == 0 {
		return
	}
	if f.perRep == nil {
		f.perRep, f.fastest = map[string]int{}, map[string]float64{}
	}
	for kind, ds := range chunks {
		f.perRep[kind] = len(ds)
		for _, d := range ds {
			seconds -= d
			if best, ok := f.fastest[kind]; !ok || d < best {
				f.fastest[kind] = d
			}
		}
	}
	f.remainders = append(f.remainders, seconds)
}

// seconds is 0 when no repetition reported chunks.
func (f *floor) seconds() float64 {
	if len(f.remainders) == 0 {
		return 0
	}
	s := median(f.remainders)
	for kind, n := range f.perRep {
		s += float64(n) * f.fastest[kind]
	}
	return s
}

// measure runs one workload the way every mode of the benchmark does: one
// untimed warm-up repetition, reps timed untraced repetitions with the set-up
// probes spread between them and, when tr is non-nil, one traced repetition
// whose spans land in tr. Every repetition is verified; a mismatch or an
// error counts as a failed operation against the repetitions attempted and is
// reported, never retried — except a hang-watchdog abort, see watchdogAbort.
// Wrong counts the mismatches alone: an error is an operation that failed, a
// mismatch is an output that is incorrect.
func measure(w *workload, sc *scale, in *inputs, want map[string]string, reps, probes int, tr *tracer, parent int32) workloadResult {
	res := workloadResult{Workload: w.name}
	fail := func(label string, err error) {
		res.Attempted++
		res.Failed++
		res.Failures = append(res.Failures, fmt.Sprintf("%s: %v", label, err))
	}
	attempt := func(label string, t *tracer, p int32, ct *caf.Tracer) (sample, bool) {
		smp, err := res.runJob(w, label, job{sc: sc, in: in, tr: t, parent: p, ct: ct})
		if err != nil {
			fail(label, err)
			return smp, false
		}
		res.Attempted++
		if problems := verify(smp.out, want); len(problems) > 0 {
			res.Failed++
			res.Wrong++
			for _, p := range problems {
				res.Failures = append(res.Failures, label+": "+p)
			}
			return smp, false
		}
		return smp, true
	}

	attempt("warm-up", nil, -1, nil)

	// The set-up probes are spread over the run, a few before every
	// repetition: the host changes speed by the second, and setup_s taken in
	// one burst would report the speed of that moment.
	probe := func(i int) {
		label := fmt.Sprintf("probe %d", i)
		s := tr.begin(parent, "probe")
		smp, err := res.runJob(w, label, job{sc: sc, in: in, probe: true})
		tr.end(s)
		if err != nil {
			fail(label, err)
			return
		}
		res.SetupS = append(res.SetupS, smp.seconds)
		res.SetupOps = smp.out.ops
		res.SetupAllocs = append(res.SetupAllocs, smp.mallocs)
	}
	var cycles uint32
	var cpuS, gcCPUS, allCPUS float64
	var fl floor
	for i := 0; i < reps; i++ {
		for p := i * probes / reps; p < (i+1)*probes/reps; p++ {
			probe(p)
		}
		tr.nextID()
		s := tr.begin(parent, "rep")
		smp, ok := attempt(fmt.Sprintf("rep %d", i), nil, -1, nil)
		tr.end(s)
		cycles += smp.gcCycles
		cpuS += smp.cpuS
		gcCPUS += smp.gcCPUS
		allCPUS += smp.allCPUS
		if !ok {
			continue
		}
		out := smp.out
		res.RunS = append(res.RunS, smp.seconds)
		res.Ops = append(res.Ops, float64(out.ops))
		res.Allocs = append(res.Allocs, smp.mallocs)
		res.AllocBytes = append(res.AllocBytes, smp.bytes)
		fl.add(smp.seconds, out.chunks)
		if w.pinsVirtual {
			res.VirtualMs = out.virtualMs
		}
		if res.Extra == nil {
			res.Extra = out.extra
		}
	}
	res.FloorS = fl.seconds()
	if reps > 0 {
		res.CPUSPerRep = cpuS / float64(reps)
		res.GCCycles = float64(cycles) / float64(reps)
	}
	if allCPUS > 0 {
		res.GCCPUPct = 100 * gcCPUS / allCPUS
	}

	// ru_maxrss only grows: read it before the traced repetition, whose event
	// log would otherwise be counted as the workload's memory.
	res.PeakRSSMiB = peakRSSMiB()

	if tr != nil {
		tr.nextID()
		ct := caf.NewTracer()
		stop := pollPeakGoroutines()
		s := tr.begin(parent, "rep.traced")
		smp, _ := attempt("traced rep", tr, s, ct)
		tr.end(s)
		res.TracedRunS = smp.seconds
		res.PeakGoroutines = stop()
		res.Counts, res.Bytes = map[string]int64{}, map[string]int64{}
		for _, op := range ct.Summary() {
			res.Counts[op.Op] = int64(op.Count)
			res.Bytes[op.Op] = op.Bytes
		}
		res.Atomics, res.LocksAcquired = smp.out.atomics, smp.out.locks
		res.SelfNs = tr.selfTimes()
	}
	return res
}
