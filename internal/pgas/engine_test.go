package pgas

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"cafshmem/internal/fabric"
)

// runProgram executes a small RMA+wait+barrier program on the given engine
// and returns the final virtual time of every PE. PE i writes a flag word
// into PE (i+1)%n at a per-round visibility time, waits for its own flag,
// merges the recorded timestamp, and barriers.
func runProgram(t *testing.T, opts Options, n, rounds int) []float64 {
	t.Helper()
	w, err := NewWorldOpts(&fabric.Machine{Name: "test", CoresPerNode: 4}, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	times := make([]float64, n)
	err = w.Run(func(p *PE) {
		for r := 1; r <= rounds; r++ {
			dst := (p.ID + 1) % n
			p.Clock.Advance(float64(10 * r))
			w.WriteUint64(dst, 64, uint64(r), p.Clock.Now()+5)
			ts := p.WaitUntil64(64, func(v uint64) bool { return v >= uint64(r) })
			p.Clock.MergeAtLeast(ts)
			p.Barrier(100)
		}
		times[p.ID] = p.Clock.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	return times
}

// TestEventEngineMatchesGoroutine is the substrate-level bit-identity check:
// the same program produces the same final virtual time on every PE under
// both engines, including with a worker pool far smaller than the world.
func TestEventEngineMatchesGoroutine(t *testing.T) {
	for _, n := range []int{2, 7, 32} {
		ref := runProgram(t, Options{Engine: EngineGoroutine}, n, 5)
		for _, workers := range []int{1, 2, 0} {
			got := runProgram(t, Options{Engine: EngineEvent, Workers: workers}, n, 5)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("n=%d workers=%d PE %d: event %v != goroutine %v",
						n, workers, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestEventEngineBoundedWorkers verifies the pool bound: with Workers=2, no
// more than two PE bodies are ever between slot acquisition and release.
func TestEventEngineBoundedWorkers(t *testing.T) {
	const n, workers = 16, 2
	w, err := NewWorldOpts(&fabric.Machine{Name: "test", CoresPerNode: 4}, n, Options{Engine: EngineEvent, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var running, peak atomic.Int32
	enter := func() {
		r := running.Add(1)
		for {
			p := peak.Load()
			if r <= p || peak.CompareAndSwap(p, r) {
				break
			}
		}
	}
	err = w.Run(func(p *PE) {
		for r := 1; r <= 4; r++ {
			enter()
			w.WriteUint64((p.ID+1)%n, 0, uint64(r), float64(r))
			running.Add(-1)
			p.WaitUntil64(0, func(v uint64) bool { return v >= uint64(r) })
			enter()
			running.Add(-1)
			p.Barrier(10)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("observed %d concurrently running bodies, worker pool is %d", got, workers)
	}
}

// TestEventEngineDeadlockDetected: an event-engine world whose PEs all wait
// on flags nobody will ever write must be poisoned with the deadlock report
// rather than hang.
func TestEventEngineDeadlockDetected(t *testing.T) {
	w, err := NewWorldOpts(&fabric.Machine{Name: "test", CoresPerNode: 4}, 4, Options{Engine: EngineEvent, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *PE) {
		p.WaitUntil64(0, func(v uint64) bool { return v != 0 })
	})
	if err == nil {
		t.Fatal("expected deadlock poisoning, got nil error")
	}
	if !strings.Contains(err.Error(), "pgas: deadlock: all 4 alive PEs blocked") {
		t.Fatalf("expected the deadlock report, got: %v", err)
	}
}

// TestEventEngineFaultFanout exercises departures under the event engine's
// watcher-registry fan-out: PEs blocked on a flag owned by a failing PE must
// observe the failure through WaitUntilStat instead of hanging, on both
// engines, with identical fault reports.
func TestEventEngineFaultFanout(t *testing.T) {
	for _, opts := range []Options{
		{Engine: EngineGoroutine},
		{Engine: EngineEvent, Workers: 2},
	} {
		opts := opts
		t.Run(opts.Engine.String(), func(t *testing.T) {
			const n = 6
			w, err := NewWorldOpts(&fabric.Machine{Name: "test", CoresPerNode: 4}, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			var faults atomic.Int32
			err = w.Run(func(p *PE) {
				if p.ID == 0 {
					p.Clock.Advance(50)
					p.Fail()
				}
				_, werr := p.WaitUntilStat(0, 8, func(b []byte) bool { return b[0] != 0 },
					func() error {
						if w.Failed(0) {
							return fmt.Errorf("producer failed")
						}
						return nil
					})
				if werr != nil && werr.Error() == "producer failed" {
					faults.Add(1)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := faults.Load(); got != n-1 {
				t.Fatalf("expected %d waiters to observe the failure, got %d", n-1, got)
			}
		})
	}
}

// TestParseEngine covers the CLI flag parser.
func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		err  bool
	}{
		{"goroutine", EngineGoroutine, false},
		{"", EngineGoroutine, false},
		{"event", EngineEvent, false},
		{"fibers", 0, true},
	} {
		got, err := ParseEngine(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Fatalf("ParseEngine(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}
