package pgas

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"cafshmem/internal/fabric"
)

// runProgram executes a small RMA+wait+barrier program and returns the final
// virtual time of every PE. PE i writes a flag word into PE (i+1)%n at a
// per-round visibility time, waits for its own flag, merges the recorded
// timestamp, and barriers.
func runProgram(t *testing.T, shards, n, rounds int) []float64 {
	t.Helper()
	w, err := newWorldShards(&fabric.Machine{Name: "test", CoresPerNode: 4}, n, Options{}, shards)
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

// shardLayouts are the barrier shard counts the determinism differentials run
// a program over: one shard, two, an odd count that splits ranks unevenly, and
// at least one shard per PE.
func shardLayouts(n int) []int { return []int{1, 2, 3, n + 1} }

// TestDeterminismAcrossShardLayouts is the substrate-level determinism check:
// the same program gives the same final virtual time on every PE whatever the
// barrier shard layout, run after run. check.sh repeats every TestDeterminism
// test at GOMAXPROCS 1, 2 and 8.
func TestDeterminismAcrossShardLayouts(t *testing.T) {
	for _, n := range []int{2, 7, 32} {
		ref := runProgram(t, 0, n, 5)
		for _, shards := range shardLayouts(n) {
			for run := 0; run < 2; run++ {
				if got := runProgram(t, shards, n, 5); !reflect.DeepEqual(got, ref) {
					t.Fatalf("n=%d shards=%d run %d: %v, want %v", n, shards, run, got, ref)
				}
			}
		}
	}
}

// TestDeadlockDetected: a world whose PEs all wait on flags nobody will ever
// write must be poisoned with the deadlock report rather than hang.
func TestDeadlockDetected(t *testing.T) {
	w, err := NewWorld(&fabric.Machine{Name: "test", CoresPerNode: 4}, 4)
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

// TestEventEngineFaultFanout exercises the departure fan-out: PEs blocked on
// a flag owned by a failing PE must observe the failure through WaitUntilStat
// instead of hanging.
func TestEventEngineFaultFanout(t *testing.T) {
	for _, e := range engineSpellings {
		t.Run(e.name, func(t *testing.T) {
			const n = 6
			w, err := NewWorldOpts(&fabric.Machine{Name: "test", CoresPerNode: 4}, n, e.opts)
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

// TestDeadlockDepartFanoutGated pins the gate on the departure fan-out from
// both sides, without the host clock. A world whose bodies all return visits
// no partition — every returning PE used to load every partition's waiter
// word, n² loads per job. And the gate loses no wake: a PE asleep in a wait
// that only a peer's departure can end is still woken by it, while a third PE
// returns at once, before or after the watch exists (a lost wake here is a
// false deadlock verdict).
func TestDeadlockDepartFanoutGated(t *testing.T) {
	n := 4096
	if RaceEnabled {
		n = 512
	}
	w, err := NewWorld(fabric.Titan(), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(p *PE) {}); err != nil {
		t.Fatal(err)
	}
	if got := w.WakeVisits(); got != 0 {
		t.Errorf("%d PEs returned with no watch registered: the fan-out visited %d partitions, want 0", n, got)
	}
	for _, fail := range []bool{false, true} {
		w, err := NewWorld(testMachine(), 3)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *PE) {
			switch p.ID {
			case 0:
				_, _, werr := p.WaitWordStat(0, CmpNE, 0, func() error {
					if !w.Alive(1) {
						return ErrWaitRecheck
					}
					return nil
				})
				if werr != ErrWaitRecheck {
					panic(fmt.Sprintf("wait ended with %v, want the departure", werr))
				}
			case 1:
				waitAsleep(w, 1)
				if fail {
					p.Fail()
				}
			default: // returns at once: a departure that may find no watch yet
			}
		})
		if err != nil {
			t.Fatalf("fail=%v: waiter on a departing peer was not woken: %v", fail, err)
		}
		if got := w.WakeVisits(); got != 3 && got != 6 {
			t.Errorf("fail=%v: fan-outs visited %d partitions, want 3 or 6 (one or two departures past one waiter)", fail, got)
		}
	}
}

// TestDeadlockUnwindsWithOneFanout: the unwinding of a poisoned world is
// linear. Half the PEs of a deadlocked world panic out of their wait, and each
// panic poisons the world again — only the first may wake it; the other half
// return the error and depart while their peers still hold watches — none may
// scan it. At 100k images either costs 10¹⁰ partition visits.
func TestDeadlockUnwindsWithOneFanout(t *testing.T) {
	const n = 512
	w, err := NewWorld(fabric.Titan(), n)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *PE) {
		if p.ID%2 == 0 {
			p.WaitUntil64(8, func(uint64) bool { return false })
		}
		_, _ = p.WaitUntilStat(8, 8, func([]byte) bool { return false }, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "pgas: deadlock: all 512 alive PEs blocked") {
		t.Fatalf("want the deadlock report, got %v", err)
	}
	if got := w.WakeVisits(); got != n {
		t.Errorf("unwinding %d PEs visited %d partitions, want %d (one poison fan-out)", n, got, n)
	}
}
