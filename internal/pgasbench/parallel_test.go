package pgasbench

import (
	"bytes"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// concurrentFigures are the figures the benchmark's paper_figures workload
// builds (Figs 8 and 10 at 16 images, Fig 10 on a small grid), and every
// other deterministic builder that runs its worlds through parallel, at a
// small scale: the matrix-stride panel, the Himeno schedule panels and
// barrier counts of the overlap and signal figures, and the quiet and
// base-dimension ablations. AblationLocks and Fig 9 follow the host's
// schedule (their lock arrival order), so no two builds need agree.
func concurrentFigures() []Figure {
	return []Figure{Fig2(), Fig3(), Fig6(), Fig7(), Fig8(16), Fig10(16, OverlapHimenoParams()),
		MatrixOrientedAblation(), FigOverlap(8), FigSignal(8), AblationQuiet(), AblationBaseDim()}
}

// The figures run their independent worlds concurrently (parallel): built at
// this test's GOMAXPROCS they must carry the same labels, Xs and value bits,
// in the same order, as built one world after another at GOMAXPROCS 1.
func TestDeterminismFiguresConcurrent(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	want := concurrentFigures()
	runtime.GOMAXPROCS(prev)
	got := concurrentFigures()
	for fi, f := range want {
		g := got[fi]
		if len(g.Panels) != len(f.Panels) {
			t.Fatalf("%s: %d panels, want %d", f.ID, len(g.Panels), len(f.Panels))
		}
		for pi, p := range f.Panels {
			gp := g.Panels[pi]
			if len(gp.Series) != len(p.Series) {
				t.Fatalf("%s %q: %d series, want %d", f.ID, p.Title, len(gp.Series), len(p.Series))
			}
			for si, s := range p.Series {
				gs := gp.Series[si]
				if gs.Label != s.Label || len(gs.Rows) != len(s.Rows) {
					t.Fatalf("%s %q series %d: %q with %d rows, want %q with %d", f.ID, p.Title, si, gs.Label, len(gs.Rows), s.Label, len(s.Rows))
				}
				for ri, r := range s.Rows {
					gr := gs.Rows[ri]
					if gr.X != r.X || math.Float64bits(gr.Value) != math.Float64bits(r.Value) {
						t.Errorf("%s %q %s row %d: (%v, %v), want (%v, %v)", f.ID, p.Title, s.Label, ri, gr.X, gr.Value, r.X, r.Value)
					}
				}
			}
		}
	}
}

// recoverJob returns r as raised by parallel, nil if it is anything else.
func recoverJob(r any) *jobPanic {
	p, _ := r.(*jobPanic)
	return p
}

// A job that panics does not stop the others: parallel re-raises its value
// on the caller once every job has returned, and leaves no goroutine behind.
func TestParallelPanicWaitsForEveryJob(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		start := runtime.NumGoroutine()
		const n = 6
		var panicked atomic.Bool
		var finished atomic.Int64
		func() {
			defer func() {
				if p := recoverJob(recover()); p == nil || p.Value != "job 0" {
					t.Errorf("GOMAXPROCS %d: recovered %v, want job 0's panic", procs, p)
				}
				if got := finished.Load(); got != n-1 {
					t.Errorf("GOMAXPROCS %d: panic raised with %d of %d other jobs finished", procs, got, n-1)
				}
			}()
			parallel(n, func(i int) int {
				if i == 0 {
					panicked.Store(true)
					panic("job 0")
				}
				for !panicked.Load() {
					runtime.Gosched()
				}
				for range 100 {
					runtime.Gosched()
				}
				finished.Add(1)
				return i
			})
			t.Errorf("GOMAXPROCS %d: parallel returned despite a panicking job", procs)
		}()
		runtime.GOMAXPROCS(prev)
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > start && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if got := runtime.NumGoroutine(); got > start {
			t.Errorf("GOMAXPROCS %d: %d goroutines after parallel, %d before", procs, got, start)
		}
	}
}

// Results come back in job order at any GOMAXPROCS, and the first panic in
// job order is the one raised, carrying the stack the job failed on.
func TestParallelOrder(t *testing.T) {
	for _, procs := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(procs)
		got := parallel(50, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("GOMAXPROCS %d: slot %d holds %d", procs, i, v)
			}
		}
		func() {
			defer func() {
				if p := recoverJob(recover()); p == nil || p.Value != 3 {
					t.Errorf("GOMAXPROCS %d: recovered %v, want the panic of job 3", procs, p)
				} else if !bytes.Contains(p.Stack, []byte("parallel_test.go")) {
					t.Errorf("GOMAXPROCS %d: the raised panic lost the job's stack:\n%s", procs, p.Stack)
				}
			}()
			parallel(10, func(i int) int {
				if i == 3 || i == 7 {
					panic(i)
				}
				return i
			})
		}()
		runtime.GOMAXPROCS(prev)
	}
}
