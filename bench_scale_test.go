package cafshmem

// The two host-time panels benchmark/ cannot measure yet; ROADMAP's ledger
// item moves them there. Every other host-time number is a benchmark/ workload
// or ladder row, and virtual-time results are cmd/reproduce's.
//
// BenchmarkWallclockScale runs two application workloads (a blocking-halo
// Himeno iteration and the disjoint locked-update DHT pattern) at 256 / 1k /
// 4k / 10k images, plus a barrier panel that goes on to 100k. Rows are
// "panel/n=<images>", with two extra metrics comparable across sizes:
//
//	ns/simop          wall-clock nanoseconds per runtime-issued communication
//	                  operation (caf.Stats.Ops summed over all images) — the
//	                  host cost of simulating one op, independent of how many
//	                  ops a configuration happens to issue
//	peak-goroutines   high-water goroutine count sampled during the run:
//	                  images+O(1), a world starts nothing but its PEs

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"cafshmem/internal/caf"
	"cafshmem/internal/dht"
	"cafshmem/internal/fabric"
	"cafshmem/internal/himeno"
	"cafshmem/internal/pgasbench"
)

// pollPeakGoroutines samples the process goroutine count until stopped and
// returns the high-water mark (the poller itself included — a constant +1).
func pollPeakGoroutines() (stop func() float64) {
	peak := 0
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(200 * time.Microsecond)
		defer t.Stop()
		for {
			peak = max(peak, runtime.NumGoroutine())
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
		return float64(peak)
	}
}

// scaleAppCap bounds the Himeno and DHT panels; the barrier panel alone runs
// the full range.
const scaleAppCap = 10240

// scaleRow times b.N runs of job, which returns how many simulated operations
// it issued, and reports the row's two extra metrics.
func scaleRow(b *testing.B, job func() (simOps int64, err error)) {
	stop := pollPeakGoroutines()
	var simOps int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops, err := job()
		if err != nil {
			b.Fatal(err)
		}
		simOps += ops
	}
	b.StopTimer()
	peak := stop()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(simOps), "ns/simop")
	b.ReportMetric(peak, "peak-goroutines")
}

func BenchmarkWallclockScale(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 10240, 102400} {
		if n <= scaleAppCap {
			b.Run(fmt.Sprintf("himeno/n=%d", n), func(b *testing.B) {
				o := caf.UHCAFOverMV2XSHMEM()
				o.Strided = caf.StridedNaive
				// One j-plane per image: the footprint stays linear in the
				// image count and every image sleeps at halo waits/barriers.
				prm := himeno.Params{NX: 8, NY: n, NZ: 8, Iters: 2}
				scaleRow(b, func() (int64, error) {
					r, err := himeno.Run(o, n, prm)
					return r.CommOps, err
				})
			})
		}
		b.Run(fmt.Sprintf("barrier/n=%d", n), func(b *testing.B) {
			// Sleep-dominated panel: every op is one whole-job barrier, so
			// ns/simop isolates what a sleep/wake cycle costs — payload-heavy
			// panels dilute it with marshalling and timestamp bookkeeping.
			o := caf.UHCAFOverCraySHMEM(fabric.Titan())
			// Enough rounds that one-off world construction (goroutine
			// spawns, symmetric-heap setup) amortises out and ns/simop
			// reflects the steady-state cycle. At 100k images the per-round
			// cost is high enough (and construction proportionally cheaper)
			// that fewer rounds suffice to keep the row's wall-clock bounded.
			rounds := 200
			if n > scaleAppCap {
				rounds = 25
			}
			scaleRow(b, func() (int64, error) {
				err := caf.Run(n, o, func(img *caf.Image) {
					for r := 0; r < rounds; r++ {
						img.Clock().Advance(100)
						img.SyncAll()
					}
				})
				return int64(n * rounds), err
			})
		})
		if n <= scaleAppCap {
			b.Run(fmt.Sprintf("dht/n=%d", n), func(b *testing.B) {
				o := caf.UHCAFOverCraySHMEM(fabric.Titan())
				scaleRow(b, func() (int64, error) {
					// Disjoint pattern: remote lock + get + put traffic with
					// no contention, deterministic at every size.
					r, err := dht.BenchPattern(o, n, 16, 10, true)
					return r.CommOps, err
				})
			})
		}
	}
}

// BenchmarkWallclockHimenoTransport is the 256-image Fig 10 workload (naive
// strided algorithm, 20 iterations) once per transport backend, so the rows
// differ only in the transport mapping: shmem fast path, GASNet AM engine +
// NBI streams, MPI-3 window epochs.
func BenchmarkWallclockHimenoTransport(b *testing.B) {
	prm := himeno.Params{NX: 16, NY: 256, NZ: 8, Iters: 20}
	for _, kind := range []caf.TransportKind{caf.TransportSHMEM, caf.TransportGASNet, caf.TransportMPI3} {
		b.Run("transport="+kind.String(), func(b *testing.B) {
			o := pgasbench.TransportOptions(kind)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := himeno.Run(o, 256, prm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
