package himeno

import (
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

func benchRun(t *testing.T, engine pgas.Engine, overlap bool, iters int) {
	t.Helper()
	o := caf.UHCAFOverMV2XSHMEM()
	o.Strided = caf.StridedNaive
	o.Engine = engine
	if _, err := Run(o, benchImages, Params{NX: 16, NY: 256, NZ: 8, Iters: iters, Overlap: overlap}); err != nil {
		t.Fatal(err)
	}
}

// TestHimenoSteadyStateAllocs pins what a Himeno iteration costs the host
// beyond its simulated operations, on both schedules.
//
// allocs: the mallocs an image-iteration adds — a run of N iterations minus a
// run of one, so world set-up cancels — stay under a ceiling, measured with
// the collector paused. Both schedules owe the heap one object per
// image-iteration, the slice co_sum returns: a nonblocking halo put lands
// before it returns, so nothing copies its plane. Before the control-word and
// section paths came off the heap these read 24.5 and 41.3; the signal
// schedule read 2.99 while its puts were copied.
//
// goroutines: the run never holds more than one goroutine per image plus the
// test's own handful — a world starts nothing but its PEs.
func TestHimenoSteadyStateAllocs(t *testing.T) {
	const iters = 31
	for _, sched := range []struct {
		name    string
		overlap bool
		ceiling float64 // mallocs per image-iteration
	}{
		{"blocking", false, 1.05},
		{"signal", true, 1.05},
	} {
		for _, e := range engineSpellings {
			t.Run("allocs/"+sched.name+"/"+e.name, func(t *testing.T) {
				if pgas.RaceEnabled {
					t.Skip("under -race sync.Pool drops a quarter of what is put into it, and every naive section borrows its run offsets from one")
				}
				defer pgas.PauseGC()()
				mallocs := func(n int) uint64 {
					var a, b runtime.MemStats
					runtime.ReadMemStats(&a)
					benchRun(t, e.engine, sched.overlap, n)
					runtime.ReadMemStats(&b)
					return b.Mallocs - a.Mallocs
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
			benchRun(t, e.engine, false, 20)
			close(stop)
			<-stopped
			// base already counts the test's goroutines; +1 is the sampler.
			if limit := int64(base + 1 + benchImages + 16); peak.Load() > limit {
				t.Errorf("peak %d live goroutines during a %d-image run (%d before it), limit images+16", peak.Load(), benchImages, base)
			}
		})
	}
}
