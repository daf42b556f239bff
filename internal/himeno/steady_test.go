package himeno

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cafshmem/internal/caf"
	"cafshmem/internal/pgas"
)

// benchShape is the benchmark's himeno_*_256 workload: a 16x256x8 grid over
// 256 images with the naive (putmem-per-run) section lowering.
const benchImages = 256

// engineSpellings are the two values of the deprecated pgas.Options.Engine,
// which benchmark/ still passes and which select nothing; the subtests whose
// names the test floor pins run once per spelling (internal/pgas/steady_test.go).
var engineSpellings = []struct {
	name   string
	engine pgas.Engine
}{{"goroutine", pgas.EngineGoroutine}, {"event", pgas.EngineEvent}}

func benchRun(t *testing.T, engine pgas.Engine, sched Params, iters int) {
	t.Helper()
	o := caf.UHCAFOverMV2XSHMEM()
	o.Strided = caf.StridedNaive
	o.Engine = engine
	sched.NX, sched.NY, sched.NZ, sched.Iters = 16, 256, 8, iters
	if _, err := Run(o, benchImages, sched); err != nil {
		t.Fatal(err)
	}
}

// TestHimenoSteadyStateAllocs pins what a Himeno iteration costs the host
// beyond its simulated operations, on all three schedules.
//
// allocs: the mallocs an image-iteration adds — a run of N iterations minus a
// run of one, so world set-up cancels — stay under a ceiling, measured with
// the collector paused. Each run's count is the fewest of three repeats: a
// malloc the host's load adds to one run (a runner started because none was
// idle yet) is not the iteration's. No schedule owes the heap anything per
// image-iteration: a nonblocking halo put lands before it returns, so nothing
// copies its plane, and the residual co_sum reduces in place into one
// element the image keeps for the whole run. Before the control-word and
// section paths came off the heap these read 24.5 and 41.3; the signal
// schedule read 2.99 while its puts were copied, and every schedule read 1.0
// while co_sum returned a fresh slice.
//
// goroutines: the run never holds more than one goroutine per image plus the
// test's own handful — a world starts nothing but its PEs.
func TestHimenoSteadyStateAllocs(t *testing.T) {
	const iters = 31
	for _, sched := range []struct {
		name    string
		sched   Params
		ceiling float64 // mallocs per image-iteration
	}{
		{"blocking", Params{}, 0.05},
		{"barrier", Params{OverlapBarrier: true}, 0.05},
		{"signal", Params{Overlap: true}, 0.05},
	} {
		for _, e := range engineSpellings {
			t.Run("allocs/"+sched.name+"/"+e.name, func(t *testing.T) {
				if pgas.RaceEnabled {
					t.Skip("under -race sync.Pool drops a quarter of what is put into it, and every naive section borrows its run offsets from one")
				}
				defer pgas.PauseGC()()
				mallocs := func(n int) uint64 {
					fewest := uint64(math.MaxUint64)
					for range 3 {
						var a, b runtime.MemStats
						runtime.ReadMemStats(&a)
						benchRun(t, e.engine, sched.sched, n)
						runtime.ReadMemStats(&b)
						fewest = min(fewest, b.Mallocs-a.Mallocs)
					}
					return fewest
				}
				mallocs(2) // warm the scratch pools
				one, many := mallocs(1), mallocs(iters)
				per := (float64(many) - float64(one)) / float64(benchImages*(iters-1))
				t.Logf("%.2f mallocs per image-iteration (%d for 1 iteration, %d for %d)", per, one, many, iters)
				if per > sched.ceiling {
					t.Errorf("%.2f mallocs per image-iteration, ceiling %v", per, sched.ceiling)
				}
			})
		}
	}
	for _, e := range engineSpellings {
		t.Run("goroutines/"+e.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			var peak atomic.Int64
			stop, stopped := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(stopped)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if n := int64(runtime.NumGoroutine()); n > peak.Load() {
						peak.Store(n)
					}
					time.Sleep(200 * time.Microsecond)
				}
			}()
			benchRun(t, e.engine, Params{}, 20)
			close(stop)
			<-stopped
			// base already counts the test's goroutines; +1 is the sampler.
			if limit := int64(base + 1 + benchImages + 16); peak.Load() > limit {
				t.Errorf("peak %d live goroutines during a %d-image run (%d before it), limit images+16", peak.Load(), benchImages, base)
			}
		})
	}
}
