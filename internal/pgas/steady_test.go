package pgas

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"cafshmem/internal/fabric"
)

// Regression tests for the steady-state cost of waiting and for the one
// polling watchdog both engines share.

// bothEngines is the option pair the engine-agnostic tests sweep.
var bothEngines = []Options{
	{Engine: EngineGoroutine},
	{Engine: EngineEvent, Workers: 2},
}

// TestWaitSteadyStateAllocs pins the wait path to the heap budget the PE's
// embedded watch record buys: a wait whose condition already holds allocates
// nothing, and neither does a full park/wake hand-off — on either engine, in
// the closure form (whose predicate must stay on the caller's stack) and in
// the typed form.
func TestWaitSteadyStateAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertion is meaningless")
	}
	t.Run("satisfied", func(t *testing.T) {
		w, err := NewWorldOpts(fabric.CrayXC30(), 1, Options{Engine: EngineEvent})
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
	for _, opts := range bothEngines {
		t.Run("parkwake/"+opts.Engine.String(), func(t *testing.T) {
			const warm, rounds = 200, 20000
			w, err := NewWorldOpts(fabric.CrayXC30(), 2, opts)
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

// waitAllBlocked spins until n goroutines of w sit in a blocking wait.
func waitAllBlocked(w *World, n int32) {
	for w.blockedN.Load() < n {
		runtime.Gosched()
	}
}

// TestWatchdogCatchesDeadlockReachedByDeparture: a world that becomes
// all-blocked not because its last runner blocked but because it *left* — PE 0
// sits in a barrier, PE 1 in a wait nobody will satisfy, PE 2 stops once both
// are asleep, and its departure completes neither — is poisoned within twice
// the stall budget. A detector armed only by blocking transitions depends on
// some sleeper happening to wake and block again; the polling watchdog
// re-examines the world regardless.
func TestWatchdogCatchesDeadlockReachedByDeparture(t *testing.T) {
	for _, opts := range bothEngines {
		t.Run(opts.Engine.String(), func(t *testing.T) {
			w, err := NewWorldOpts(testMachine(), 3, opts)
			if err != nil {
				t.Fatal(err)
			}
			var departed time.Time
			err = w.Run(func(p *PE) {
				switch p.ID {
				case 0:
					p.BarrierSyncStat(0)
				case 1:
					p.WaitWordStat(8, CmpNE, 0, nil)
				default:
					waitAllBlocked(w, 2)
					departed = time.Now()
				}
			})
			took := time.Since(departed)
			if err == nil || !strings.Contains(err.Error(), "hang watchdog") || !strings.Contains(err.Error(), "stopped PEs [2]") {
				t.Fatalf("want a watchdog poison naming the stopped PE, got %v", err)
			}
			// The slack covers ticks that oversleep on a loaded host; a
			// watchdog that misses the state never returns at all.
			if limit := 2*w.stallBudget() + 250*time.Millisecond; took > limit {
				t.Errorf("poisoned %v after the departure, want within 2x the %v stall budget", took, w.stallBudget())
			}
		})
	}
}

// TestWatchdogCatchesBlockedDepartedPE: a failed PE whose goroutine blocks
// while unwinding (a deferred call waiting on a word its frozen partition can
// no longer receive) after every other PE has finished leaves zero alive PEs
// and one blocked goroutine. Run must still return — with the watchdog's
// report — because the watchdog lives as long as Run, not as long as aliveN.
func TestWatchdogCatchesBlockedDepartedPE(t *testing.T) {
	for _, opts := range bothEngines {
		t.Run(opts.Engine.String(), func(t *testing.T) {
			w, err := NewWorldOpts(testMachine(), 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *PE) {
				if p.ID == 1 {
					defer p.WaitWordStat(0, CmpNE, 0, nil)
					p.Fail()
				}
			})
			if err == nil || !strings.Contains(err.Error(), "hang watchdog") || !strings.Contains(err.Error(), "1 departed PEs still blocked") {
				t.Fatalf("want a watchdog poison counting the blocked departed PE, got %v", err)
			}
		})
	}
}

// TestWatchdogSparesRunningPE: a blocked goroutine of a *departed* PE is not
// an alive PE. With a failed PE blocked while unwinding, one alive PE blocked
// and one alive PE in a compute phase longer than the stall budget (no events),
// the blocked count equals the alive count — but the runner can still wake
// both sleepers, and does. The watchdog compares blocked goroutines with the
// goroutines that have not returned, so it leaves this world alone.
func TestWatchdogSparesRunningPE(t *testing.T) {
	for _, opts := range bothEngines {
		t.Run(opts.Engine.String(), func(t *testing.T) {
			w, err := NewWorldOpts(testMachine(), 3, opts)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *PE) {
				switch p.ID {
				case 0:
					waitAllBlocked(w, 2)
					time.Sleep(w.stallBudget() + 100*time.Millisecond)
					w.WriteUint64(1, 8, 1, 0)
					w.RepairWrite(2, 0, []byte{1}, 0) // lands in the frozen partition
				case 1:
					p.WaitWord(8, CmpNE, 0)
				default:
					defer p.WaitWordStat(0, CmpNE, 0, nil)
					p.Fail()
				}
			})
			if err != nil {
				t.Fatalf("healthy world with a long compute phase was poisoned: %v", err)
			}
		})
	}
}

// TestWatchdogRetiredPerRun: the watchdog belongs to one Run. A second Run
// that starts before the first one's watchdog has ticked must not revive it.
func TestWatchdogRetiredPerRun(t *testing.T) {
	w, err := NewWorld(testMachine(), 1)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	if err := w.Run(func(*PE) {}); err != nil {
		t.Fatal(err)
	}
	var during int
	err = w.Run(func(*PE) {
		time.Sleep(25 * time.Millisecond) // several ticks: the first watchdog is gone
		during = runtime.NumGoroutine()
	})
	if err != nil {
		t.Fatal(err)
	}
	if during > before+2 {
		t.Errorf("%d goroutines inside the second Run, want at most %d (the PE and one watchdog)", during, before+2)
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
					if _, ok := w.RMW64Stat(1, 0, OpSwap, v, 0); !ok {
						return
					}
				} else if _, ok := w.CompareSwap64Stat(1, 0, lastOK, v, 0); !ok {
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
