package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"

	"cafshmem/internal/caf"
	"cafshmem/internal/dht"
	"cafshmem/internal/fabric"
	"cafshmem/internal/himeno"
	"cafshmem/internal/pgas"
	"cafshmem/internal/pgasbench"
)

// scale fixes every size the workloads and the ladder run at. The benchmark
// runs at fullScale; toyScale exists so bench_test.go can drive every code
// path in seconds. Metric names never change with the scale.
type scale struct {
	name string

	himenoNX, himenoNY, himenoNZ int
	himenoIters, himenoImages    int

	barrierImages, barrierRounds int

	dhtImages, dhtBuckets, dhtUpdates, dhtSyncEvery int

	putCount int // timed puts of each size
	putChunk int // puts between two of image 1's timestamps (see floor)

	figures          []string // which paper figures paper_figures regenerates
	figLockImages    int
	figHimenoImages  int
	figHimenoParams  himeno.Params
	ladderCalls8B    int // calls per 8-byte rung
	ladderCalls64K   int // calls per 64 KiB rung
	ladderCallsSlow  int // calls per rung that parks or issues thousands of transfers
	ladderHandoffs   int // park/resume ping-pong hand-offs
	ladderBatches    int // batches per rung; the rung reports the median batch
	worldSmall       int // images behind the ".256" metrics
	worldLarge       int // images behind the ".10240" metrics
	worldSmallReps   int
	worldLargeReps   int
	barrierLargeRuns int // barrier_10k bodies timed at GOMAXPROCS 2 for round statistics
}

var fullScale = scale{
	name:     "full",
	himenoNX: 16, himenoNY: 256, himenoNZ: 8, himenoIters: 20, himenoImages: 256,
	barrierImages: 10240, barrierRounds: 100,
	dhtImages: 1024, dhtBuckets: 64, dhtUpdates: 50, dhtSyncEvery: 10,
	putCount:        100000,
	putChunk:        1000,
	figures:         []string{"Fig2", "Fig3", "Fig6", "Fig7", "Fig8", "Fig10"},
	figLockImages:   256,
	figHimenoImages: 128,
	figHimenoParams: pgasbench.DefaultHimenoParams(),
	ladderCalls8B:   200000, ladderCalls64K: 20000, ladderCallsSlow: 2000, ladderHandoffs: 200000,
	ladderBatches: 5,
	worldSmall:    256, worldLarge: 10240, worldSmallReps: 20, worldLargeReps: 3,
	barrierLargeRuns: 2,
}

var toyScale = scale{
	name:     "toy",
	himenoNX: 8, himenoNY: 32, himenoNZ: 8, himenoIters: 3, himenoImages: 16,
	barrierImages: 16, barrierRounds: 10,
	dhtImages: 16, dhtBuckets: 16, dhtUpdates: 10, dhtSyncEvery: 5,
	putCount:        200,
	putChunk:        50,
	figures:         []string{"Fig8", "Fig10"},
	figLockImages:   16,
	figHimenoImages: 16,
	figHimenoParams: himeno.Params{NX: 8, NY: 16, NZ: 8, Iters: 2},
	ladderCalls8B:   200, ladderCalls64K: 50, ladderCallsSlow: 5, ladderHandoffs: 200,
	ladderBatches: 2,
	worldSmall:    16, worldLarge: 64, worldSmallReps: 2, worldLargeReps: 1,
	barrierLargeRuns: 1,
}

// inputs is everything generated from -seed. The program under test receives
// only these values, never the seed.
type inputs struct {
	dhtKeys     [][]uint64       // [image-1][update] key stream
	dhtMult     map[uint64]int64 // how often each key occurs over all streams
	ladderOrder []int            // order in which ladder rungs visit their target slots
}

const ladderSlots = 16

func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func makeInputs(sc *scale, seed uint64) *inputs {
	in := &inputs{dhtMult: map[uint64]int64{}}
	rng := seed*0x2545f4914f6cdd1d + 1
	keySpace := uint64(sc.dhtImages * sc.dhtBuckets / 2)
	in.dhtKeys = make([][]uint64, sc.dhtImages)
	for i := range in.dhtKeys {
		in.dhtKeys[i] = make([]uint64, sc.dhtUpdates)
		for u := range in.dhtKeys[i] {
			k := splitmix64(&rng) % keySpace
			in.dhtKeys[i][u] = k
			in.dhtMult[k]++
		}
	}
	in.ladderOrder = make([]int, ladderSlots)
	for i := range in.ladderOrder {
		in.ladderOrder[i] = i
	}
	for i := ladderSlots - 1; i > 0; i-- {
		j := int(splitmix64(&rng) % uint64(i+1))
		in.ladderOrder[i], in.ladderOrder[j] = in.ladderOrder[j], in.ladderOrder[i]
	}
	return in
}

// repOut is what one repetition (or one set-up probe) reports back.
type repOut struct {
	ops       int64                // runtime-issued communication operations
	virtualMs float64              // modelled time of the slowest image (0: not reported)
	checks    map[string]string    // exact values compared with golden.json
	problems  []string             // verification failures found against the generated inputs
	chunks    map[string][]float64 // seconds of each timed chunk of the steady state, by kind (see floor)
	atomics   int64                // caf.Stats.Atomics / LocksAcquired summed over images,
	locks     int64                // where the harness owns the body
	extra     map[string]float64
}

// job is one execution of a workload: a whole simulated job, or with probe
// set the same world, options and allocations with the steady-state work
// removed. tr/parent receive image-1 spans where the harness owns the body
// (a nil tr records nothing), and ct, when non-nil, is installed as
// caf.Options.Tracer.
type job struct {
	sc     *scale
	in     *inputs
	probe  bool
	tr     *tracer
	parent int32
	ct     *caf.Tracer
}

// onImage1 is the tracer image-1 spans go to: j.tr on image 1, nil elsewhere.
func (j job) onImage1(img *caf.Image) *tracer {
	if img.ThisImage() == 1 {
		return j.tr
	}
	return nil
}

// workload is one named benchmark workload; BENCHMARK.json and README.md say
// why each exists.
type workload struct {
	name string
	// repsPerSecond turns --seconds into a FIXED repetition count (never a
	// time box), so both sides of an A/B do identical work. The rates were
	// sized from per-repetition times measured on the 2-core reference box.
	repsPerSecond float64
	// probes is how many set-up probes one run makes: enough that the
	// cheapest set-up (a 0.2 ms two-image world) still gives a steady median.
	probes      int
	pinsVirtual bool // virtual_ms is deterministic and pinned in golden.json
	// ungated says why BENCHMARK.json does not list the workload, so that the
	// driver neither runs it nor gates a PR on it; empty for a listed one. The
	// benchmark itself treats both kinds alike.
	ungated string
	run     func(j job) (repOut, error)
}

// minReps is the floor under every repetition count: quartiles and medians
// of fewer than ten samples are not worth reporting. At the contract's
// --seconds 15 it is what barrier_10k (1.1-1.9 s a repetition) and
// paper_figures (2 s) run, so those two measure for ~20 s.
const minReps = 10

var workloads = []*workload{
	{name: "himeno_halo_256", repsPerSecond: 10, probes: 30, pinsVirtual: true, run: himenoRun(false)},
	{name: "himeno_signal_256", repsPerSecond: 10, probes: 30, pinsVirtual: true, run: himenoRun(true)},
	{name: "barrier_10k", repsPerSecond: 0.6, probes: 10, pinsVirtual: true, run: barrierRun,
		ungated: "its rounds follow the shared host's weather: run_s spreads 9-31 % over ten runs and two sets of ten differ by 25 %, past the widest bound the driver allows (README)"},
	{name: "dht_contended_1k", repsPerSecond: 4, probes: 30, run: dhtRun},
	// put_contig_2 is single-threaded, cache-resident, high-IPC code: the
	// kind a busy neighbour on the shared host slows most (0.16-0.45 s for the
	// same repetition within one minute), so its run_s is the floor estimate
	// (see floor). It gets 60 repetitions, ~16 s, so that the run has 6000
	// chunks of each kind and almost surely meets the host's fast phase.
	{name: "put_contig_2", repsPerSecond: 4, probes: 300, pinsVirtual: true, run: putContigRun},
	{name: "paper_figures", repsPerSecond: 0.5, probes: 100, run: figuresRun},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func (w *workload) reps(seconds float64) int {
	n := int(math.Round(seconds * w.repsPerSecond))
	if n < minReps {
		n = minReps
	}
	return n
}

// exact renders a float so that golden comparison is bit-for-bit while the
// file stays readable.
func exact(v float64) string { return fmt.Sprintf("%016x|%v", math.Float64bits(v), v) }

func himenoRun(overlap bool) func(job) (repOut, error) {
	return func(j job) (repOut, error) {
		sc := j.sc
		o := caf.UHCAFOverMV2XSHMEM()
		o.Strided = caf.StridedNaive
		o.Tracer = j.ct
		prm := himeno.Params{NX: sc.himenoNX, NY: sc.himenoNY, NZ: sc.himenoNZ, Iters: sc.himenoIters, Overlap: overlap}
		if j.probe {
			prm.Iters = 1
		}
		s := j.tr.begin(j.parent, "himeno.Run")
		r, err := himeno.Run(o, sc.himenoImages, prm)
		j.tr.end(s)
		if err != nil {
			return repOut{}, err
		}
		return repOut{
			ops:       r.CommOps,
			virtualMs: r.TimeMs,
			checks:    map[string]string{"virtual_ms": exact(r.TimeMs), "gosa": exact(r.Gosa), "ops": fmt.Sprint(r.CommOps)},
			extra: map[string]float64{
				"himeno.comm_ops_per_image_iter": float64(r.CommOps) / float64(sc.himenoImages*prm.Iters),
			},
		}, nil
	}
}

// jobStats sums, over every image of a harness-owned body, the counters the
// metrics read: total communication ops, and the lock traffic behind
// caf.amo_per_lock.
type jobStats struct {
	ops, atomics, locks atomic.Int64
}

func (a *jobStats) add(s caf.Stats) {
	a.ops.Add(s.Ops())
	a.atomics.Add(s.Atomics)
	a.locks.Add(s.LocksAcquired)
}

// barrierBody is the barrier_10k job, shared with the ladder (which times it
// at two GOMAXPROCS settings). Image 1 timestamps each round into stamps.
func barrierBody(images, rounds int, engine pgas.Engine, j job, stamps []int64) (virtualNs float64, ops int64, err error) {
	o := caf.UHCAFOverCraySHMEM(fabric.Titan())
	o.Engine = engine
	o.Tracer = j.ct
	var acc jobStats
	err = caf.Run(images, o, func(img *caf.Image) {
		first := img.ThisImage() == 1
		tr := j.onImage1(img)
		for r := 0; r < rounds; r++ {
			img.Clock().Advance(100)
			s := tr.begin(j.parent, "caf.SyncAll")
			img.SyncAll()
			tr.end(s)
			if first {
				stamps[r] = time.Now().UnixNano()
			}
		}
		if first {
			virtualNs = img.Clock().Now()
		}
		acc.add(img.Stats)
	})
	return virtualNs, acc.ops.Load(), err
}

func barrierRun(j job) (repOut, error) {
	rounds := j.sc.barrierRounds
	if j.probe {
		rounds = 1
	}
	stamps := make([]int64, rounds)
	vns, ops, err := barrierBody(j.sc.barrierImages, rounds, pgas.EngineEvent, j, stamps)
	if err != nil {
		return repOut{}, err
	}
	return repOut{
		ops: ops, virtualMs: vns / 1e6,
		checks: map[string]string{"virtual_ms": exact(vns / 1e6), "ops": fmt.Sprint(ops)},
	}, nil
}

func dhtRun(j job) (repOut, error) {
	sc, in := j.sc, j.in
	o := caf.UHCAFOverCraySHMEM(fabric.Titan())
	o.Engine = pgas.EngineEvent
	o.Tracer = j.ct
	updates := sc.dhtUpdates
	if j.probe {
		updates = 0
	}
	var acc jobStats
	var grand, wrongKeys atomic.Int64
	var virtualNs float64
	var updateErr atomic.Value
	err := caf.Run(sc.dhtImages, o, func(img *caf.Image) {
		first := img.ThisImage() == 1
		tr := j.onImage1(img)
		t := dht.New(img, sc.dhtBuckets)
		img.SyncAll()
		img.Clock().Reset()
		keys := in.dhtKeys[img.ThisImage()-1]
		for i := 0; i < updates; i++ {
			s := tr.begin(j.parent, "dht.Update")
			if err := t.Update(keys[i], 1); err != nil {
				updateErr.Store(err)
			}
			tr.end(s)
			if (i+1)%sc.dhtSyncEvery == 0 {
				s := tr.begin(j.parent, "caf.SyncAll")
				img.SyncAll()
				tr.end(s)
			}
		}
		img.SyncAll()
		if first {
			virtualNs = img.Clock().Now()
		}
		acc.add(img.Stats) // before verification reads add their own gets
		grand.Add(t.LocalSum())
		if first {
			for _, k := range keys[:updates] {
				if t.Lookup(k) != in.dhtMult[k] {
					wrongKeys.Add(1)
				}
			}
		}
	})
	if err != nil {
		return repOut{}, err
	}
	if e, ok := updateErr.Load().(error); ok {
		return repOut{}, e
	}
	out := repOut{ops: acc.ops.Load(), atomics: acc.atomics.Load(), locks: acc.locks.Load(), extra: map[string]float64{}}
	if j.probe {
		return out, nil
	}
	out.checks = map[string]string{"grand_total": fmt.Sprint(grand.Load())}
	if n := wrongKeys.Load(); n != 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d of image 1's keys hold a count that differs from the generated key streams", n))
	}
	out.extra["dht.updates_per_s_virtual"] = float64(sc.dhtImages*updates) / (virtualNs / 1e9)
	return out, nil
}

const (
	putBigElems = 1024 // 8 KiB of float64
	putSmallVal = -7.25
)

func putContigRun(j job) (repOut, error) {
	o := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
	o.Tracer = j.ct
	count := j.sc.putCount
	if j.probe {
		count = 0
	}
	var acc jobStats
	var virtualNs float64
	var received []float64
	// A probe makes the same chunk buffers (and leaves them empty), so that
	// they add nothing to the steady state (repetition - probe).
	chunks8K := make([]float64, 0, j.sc.putCount/j.sc.putChunk)
	chunks8B := make([]float64, 0, j.sc.putCount/j.sc.putChunk)
	err := caf.Run(2, o, func(img *caf.Image) {
		c := caf.Allocate[float64](img, putBigElems)
		vals := make([]float64, putBigElems)
		for i := range vals {
			vals[i] = float64(i) + 0.5
		}
		small := []float64{putSmallVal}
		all, one := caf.All(putBigElems), caf.Idx(0)
		img.SyncAll()
		if img.ThisImage() == 1 {
			c.Put(2, all, vals) // warm the target partition and any pools
			c.Put(2, one, small)
			last := time.Now()
			stamp := func(i int, chunks *[]float64) {
				if (i+1)%j.sc.putChunk == 0 {
					now := time.Now()
					*chunks = append(*chunks, now.Sub(last).Seconds())
					last = now
				}
			}
			for i := 0; i < count; i++ {
				s := j.tr.begin(j.parent, "Coarray.Put.8K")
				c.Put(2, all, vals)
				j.tr.end(s)
				stamp(i, &chunks8K)
			}
			for i := 0; i < count; i++ {
				s := j.tr.begin(j.parent, "Coarray.Put.8B")
				c.Put(2, one, small)
				j.tr.end(s)
				stamp(i, &chunks8B)
			}
			virtualNs = img.Clock().Now()
		}
		img.SyncAll()
		if img.ThisImage() == 2 {
			received = c.Slice()
		}
		acc.add(img.Stats)
	})
	if err != nil {
		return repOut{}, err
	}
	out := repOut{ops: acc.ops.Load(), virtualMs: virtualNs / 1e6}
	out.chunks = map[string][]float64{"8K": chunks8K, "8B": chunks8B}
	h := fnv.New64a()
	var b [8]byte
	for i, v := range received {
		want := float64(i) + 0.5
		if i == 0 {
			want = putSmallVal
		}
		if v != want {
			out.problems = append(out.problems, fmt.Sprintf("image 2 received %v at element %d, want %v", v, i, want))
			break
		}
		bits := math.Float64bits(v)
		for k := range b {
			b[k] = byte(bits >> (8 * k))
		}
		h.Write(b[:])
	}
	if len(received) != putBigElems {
		out.problems = append(out.problems, fmt.Sprintf("image 2 holds %d elements, want %d", len(received), putBigElems))
	}
	out.checks = map[string]string{
		"virtual_ms":  exact(out.virtualMs),
		"payload_fnv": fmt.Sprintf("%016x", h.Sum64()),
		"ops":         fmt.Sprint(out.ops),
	}
	return out, nil
}

// headline is one deterministic paper-vs-simulated number that EXPERIMENTS.md
// and cmd/reproduce already compare, recomputed here from the panels.
type headline struct {
	name   string
	figure string
	paper  float64
	sim    func(f *pgasbench.Figure) float64
}

func gain(p *pgasbench.Panel, a, b string) float64 {
	return pgasbench.GeoMeanRatio(*p.FindSeries(a), *p.FindSeries(b))
}

var headlines = []headline{
	{"fig6.contig_gain_vs_gasnet_pct", "Fig6", 8, func(f *pgasbench.Figure) float64 {
		return (gain(&f.Panels[0], "UHCAF-Cray-SHMEM", "UHCAF-GASNet") - 1) * 100
	}},
	{"fig6.strided_x_vs_craycaf", "Fig6", 3, func(f *pgasbench.Figure) float64 {
		return gain(&f.Panels[2], "UHCAF-Cray-SHMEM-2dim", "Cray-CAF")
	}},
	{"fig6.strided_x_vs_naive", "Fig6", 9, func(f *pgasbench.Figure) float64 {
		return gain(&f.Panels[2], "UHCAF-Cray-SHMEM-2dim", "UHCAF-Cray-SHMEM-naive")
	}},
	{"fig7.contig_gain_vs_gasnet_pct", "Fig7", 8, func(f *pgasbench.Figure) float64 {
		return (gain(&f.Panels[0], "UHCAF-MVAPICH2-X-SHMEM", "UHCAF-GASNet") - 1) * 100
	}},
	{"fig7.naive_over_2dim", "Fig7", 1, func(f *pgasbench.Figure) float64 {
		return gain(&f.Panels[2], "UHCAF-MVAPICH2-X-SHMEM-naive", "UHCAF-MVAPICH2-X-SHMEM-2dim")
	}},
	{"fig8.faster_than_craycaf_pct", "Fig8", 22, func(f *pgasbench.Figure) float64 {
		return (1 - 1/gain(&f.Panels[0], "Cray-CAF", "UHCAF-Cray-SHMEM")) * 100
	}},
	{"fig8.faster_than_gasnet_pct", "Fig8", 11, func(f *pgasbench.Figure) float64 {
		return (1 - 1/gain(&f.Panels[0], "UHCAF-GASNet", "UHCAF-Cray-SHMEM")) * 100
	}},
	{"fig10.avg_gain_vs_gasnet_pct", "Fig10", 6, func(f *pgasbench.Figure) float64 {
		return (gain(&f.Panels[0], "UHCAF-MVAPICH2-X-SHMEM", "UHCAF-GASNet") - 1) * 100
	}},
	{"fig10.max_gain_vs_gasnet_pct", "Fig10", 22, func(f *pgasbench.Figure) float64 {
		p := &f.Panels[0]
		shm, gas := p.FindSeries("UHCAF-MVAPICH2-X-SHMEM"), p.FindSeries("UHCAF-GASNet")
		best := 0.0
		for i := range shm.Rows {
			if g := shm.Rows[i].Value/gas.Rows[i].Value - 1; g > best {
				best = g
			}
		}
		return best * 100
	}},
}

func buildFigure(sc *scale, id string) pgasbench.Figure {
	switch id {
	case "Fig2":
		return pgasbench.Fig2()
	case "Fig3":
		return pgasbench.Fig3()
	case "Fig6":
		return pgasbench.Fig6()
	case "Fig7":
		return pgasbench.Fig7()
	case "Fig8":
		return pgasbench.Fig8(sc.figLockImages)
	case "Fig10":
		return pgasbench.Fig10(sc.figHimenoImages, sc.figHimenoParams)
	}
	panic("benchmark: unknown figure " + id)
}

func figuresRun(j job) (out repOut, err error) {
	sc, tr, parent := j.sc, j.tr, j.parent
	// The figure builders panic on a failed run; a repetition that fails is
	// reported as a failed operation, never a crash of the benchmark.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("paper_figures: %v", r)
		}
	}()
	s := tr.begin(parent, "pgasbench.VerifyAll")
	ran, err := pgasbench.VerifyAll()
	tr.end(s)
	if err != nil {
		return repOut{}, err
	}
	out.checks = map[string]string{"verify_checks": fmt.Sprint(len(ran))}
	if j.probe {
		out.ops = int64(len(ran))
		return out, nil
	}
	figs := map[string]*pgasbench.Figure{}
	points := 0
	for _, id := range sc.figures {
		s := tr.begin(parent, "pgasbench."+id)
		f := buildFigure(sc, id)
		tr.end(s)
		figs[id] = &f
		for _, p := range f.Panels {
			for _, sr := range p.Series {
				points += len(sr.Rows)
			}
		}
	}
	var errSum float64
	terms := 0
	for _, h := range headlines {
		f := figs[h.figure]
		if f == nil {
			continue
		}
		v := h.sim(f)
		out.checks[h.name] = exact(v)
		errSum += math.Abs(v-h.paper) / h.paper
		terms++
	}
	errPct := 100 * errSum / float64(terms)
	out.checks["paper_err_pct"] = exact(errPct)
	out.checks["points"] = fmt.Sprint(points)
	out.extra = map[string]float64{"model.paper_err_pct": errPct}
	out.ops = int64(points) // one simulated op here = one regenerated data point
	return out, nil
}
