package pgas

import (
	"runtime"
	"strings"
	"testing"

	"cafshmem/internal/fabric"
)

// Regression tests for the steady-state cost of waiting and for the
// quiescence rule at its edges: departures, departed-but-blocked goroutines,
// and runners the substrate cannot see.

// engineSpellings are the two values of the deprecated Options.Engine, which
// benchmark/ still passes and which select nothing. The tests whose subtest
// names the test floor pins (…/goroutine, …/event) run once per spelling, so
// the names go on meaning "a world built the way benchmark/ builds it"; they
// lose the axis when the stub is deleted (ROADMAP, ledger item).
var engineSpellings = []struct {
	name string
	opts Options
}{
	{"goroutine", Options{Engine: EngineGoroutine}},
	{"event", Options{Engine: EngineEvent}},
}

// TestWaitSteadyStateAllocs pins the wait path to the heap budget the PE's
// embedded watch record buys: a wait whose condition already holds allocates
// nothing, and neither does a full sleep/wake hand-off — in the closure form
// (whose predicate must stay on the caller's stack) and in the typed form.
func TestWaitSteadyStateAllocs(t *testing.T) {
	defer PauseGC()()
	t.Run("satisfied", func(t *testing.T) {
		w, err := NewWorld(fabric.CrayXC30(), 1)
		if err != nil {
			t.Fatal(err)
		}
		w.WriteUint64(0, 0, 7, 1)
		err = w.Run(func(p *PE) {
			want := uint64(7)
			if n := testing.AllocsPerRun(1000, func() {
				p.WaitUntil64(0, func(v uint64) bool { return v >= want })
				p.WaitWord(0, CmpGE, int64(want))
			}); n != 0 {
				t.Errorf("already-satisfied waits: %v allocs per pair, want 0", n)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	for _, e := range engineSpellings {
		t.Run("parkwake/"+e.name, func(t *testing.T) {
			const warm, rounds = 200, 20000
			w, err := NewWorldOpts(fabric.CrayXC30(), 2, e.opts)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			err = w.Run(func(p *PE) {
				// A ping-pong on word 0 of each partition: every turn parks
				// one PE and resumes the other. Odd turns use the closure
				// form, even turns the typed one.
				for r := 1; r <= warm+rounds; r++ {
					if p.ID == 0 && r == warm+1 {
						runtime.ReadMemStats(&before)
					}
					v := uint64(r)
					wait := func() {
						if r%2 == 1 {
							p.WaitUntil64(0, func(got uint64) bool { return got >= v })
						} else {
							p.WaitWord(0, CmpGE, int64(v))
						}
					}
					if p.ID == 0 {
						w.WriteUint64(1, 0, v, 0)
						wait()
					} else {
						wait()
						w.WriteUint64(0, 0, v, 0)
					}
				}
				if p.ID == 0 {
					runtime.ReadMemStats(&after)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			// The count is process-wide, so leave room for a stray runtime
			// allocation; one per hand-off would read 2*rounds.
			if got := after.Mallocs - before.Mallocs; got > rounds/100 {
				t.Errorf("%d allocations over %d park/wake hand-offs, want 0 per hand-off", got, 2*rounds)
			}
		})
	}
}

// waitAsleep spins until n PE goroutines of w's Run are asleep in a pgas wait.
// awake is read first: a goroutine returning between the two loads then reads
// as one sleeper too few, never one too many.
func waitAsleep(w *World, n int32) {
	for {
		if a := w.awake.Load(); int32(w.n)-w.exitedN.Load()-a >= n {
			return
		}
		runtime.Gosched()
	}
}

// TestDeadlockReachedByDeparture: a world that becomes all-asleep not because
// its last runner slept but because it *left* — PE 0 sits in a barrier, PE 1
// in a wait nobody will satisfy, PE 2 stops once both are asleep, and its
// departure completes neither — is poisoned by the returning goroutine itself.
func TestDeadlockReachedByDeparture(t *testing.T) {
	for _, e := range engineSpellings {
		t.Run(e.name, func(t *testing.T) {
			w, err := NewWorldOpts(testMachine(), 3, e.opts)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *PE) {
				switch p.ID {
				case 0:
					p.BarrierStat(0, barrierCall)
				case 1:
					p.WaitWordStat(8, CmpNE, 0, nil)
				default:
					waitAsleep(w, 2)
				}
			})
			if err == nil || !strings.Contains(err.Error(), "pgas: deadlock: all 2 alive PEs blocked") || !strings.Contains(err.Error(), "stopped PEs [2]") {
				t.Fatalf("want a deadlock poison naming the stopped PE, got %v", err)
			}
		})
	}
}

// TestDeadlockCatchesBlockedDepartedPE: a failed PE whose goroutine blocks
// while unwinding (a deferred call waiting on a word its frozen partition can
// no longer receive) after every other PE has finished leaves zero alive PEs
// and one sleeping goroutine. Run must still return — with the deadlock
// report — because the rule counts goroutines, not alive PEs.
func TestDeadlockCatchesBlockedDepartedPE(t *testing.T) {
	for _, e := range engineSpellings {
		t.Run(e.name, func(t *testing.T) {
			w, err := NewWorldOpts(testMachine(), 2, e.opts)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *PE) {
				if p.ID == 1 {
					defer p.WaitWordStat(0, CmpNE, 0, nil)
					p.Fail()
				}
			})
			if err == nil || !strings.Contains(err.Error(), "pgas: deadlock: all 0 alive PEs blocked") || !strings.Contains(err.Error(), "1 departed PEs still blocked") {
				t.Fatalf("want a deadlock poison counting the blocked departed PE, got %v", err)
			}
		})
	}
}

// TestDeadlockSparesRunningPE: a PE blocked on something the substrate cannot
// see counts as running. With a failed PE blocked while unwinding, one alive
// PE blocked and one alive PE parked on a host channel, every PE the
// substrate can see is asleep — but the runner can still wake both sleepers,
// and does once the test lets it go. The world is left alone however long
// that takes.
func TestDeadlockSparesRunningPE(t *testing.T) {
	for _, e := range engineSpellings {
		t.Run(e.name, func(t *testing.T) {
			w, err := NewWorldOpts(testMachine(), 3, e.opts)
			if err != nil {
				t.Fatal(err)
			}
			asleep, release, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
			go func() {
				done <- w.Run(func(p *PE) {
					switch p.ID {
					case 0:
						waitAsleep(w, 2)
						close(asleep)
						<-release
						w.WriteUint64(1, 8, 1, 0)
						w.RepairWrite(2, 0, []byte{1}, 0) // lands in the frozen partition
					case 1:
						p.WaitWord(8, CmpNE, 0)
					default:
						defer p.WaitWordStat(0, CmpNE, 0, nil)
						p.Fail()
					}
				})
			}()
			<-asleep
			close(release)
			if err := <-done; err != nil {
				t.Fatalf("healthy world with a runner on a host channel was poisoned: %v", err)
			}
		})
	}
}

// TestStatAtomicAppliedIffReportedOK races fault-aware swaps against the
// target's failure: the frozen word must be exactly the last value whose swap
// reported ok. Deciding "frozen?" outside the partition lock let a swap that
// lost the race report ok without storing — which had an MCS contender believe
// it was enqueued on a dead image's lock, and its release wait forever for a
// successor that never existed (the TestChaosDHT lost wakeup).
func TestStatAtomicAppliedIffReportedOK(t *testing.T) {
	for round := 0; round < 200; round++ {
		w, _ := NewWorld(testMachine(), 2)
		var lastOK uint64
		err := w.Run(func(p *PE) {
			if p.ID == 1 {
				for i := 0; i < round%50; i++ {
					runtime.Gosched()
				}
				p.Fail()
			}
			for v := uint64(1); ; v++ {
				if v%2 == 0 {
					if _, ok := p.RMW64Stat(1, 0, OpSwap, v, Price{}); !ok {
						return
					}
				} else if _, ok := p.CompareSwap64Stat(1, 0, lastOK, v, Price{}); !ok {
					return
				}
				lastOK = v
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := w.ReadUint64Ts(1, 0); got != lastOK {
			t.Fatalf("round %d: frozen word is %d but the last swap reported ok stored %d", round, got, lastOK)
		}
	}
}
