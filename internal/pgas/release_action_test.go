package pgas

import (
	"fmt"
	"regexp"
	"runtime"
	"slices"
	"testing"
)

// actionLog is what the test's release action reports through its context:
// each run's argument and release time, and how many participants had already
// left the barrier when it ran (none may have). The action returns its run's
// index, which every participant's rendezvous must return.
type actionLog struct {
	args  []int64
	rels  []float64
	early int
	left  []bool
}

func logRelease(ctx any, arg int64, rel float64) (int64, error) {
	l := ctx.(*actionLog)
	l.args = append(l.args, arg)
	l.rels = append(l.rels, rel)
	for _, gone := range l.left {
		if gone {
			l.early++
		}
	}
	return int64(len(l.args) - 1), nil
}

// A rendezvous that carries a release action runs it exactly once per
// generation with the arrivals' argument and the release time, before any
// participant leaves, on every shard layout, and every participant gets back
// what it returned; a plain barrier in between runs nothing; and the
// generation count moves by one per rendezvous either way.
func TestReleaseActionRunsOncePerGeneration(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{{1, 0}, {2, 0}, {5, 1}, {5, 5}, {300, 0}, {300, 7}} {
		w, err := newWorldShards(testMachine(), tc.n, Options{}, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		const rounds = 20
		log := &actionLog{left: make([]bool, tc.n)}
		var gens uint64
		err = w.Run(func(p *PE) {
			for r := int64(0); r < rounds; r++ {
				p.Clock.Advance(float64(p.ID+1) * 1.5)
				off, err, fault := p.BarrierStat(10, Call{Op: "Log", Arg: r, Release: logRelease, On: log})
				if off != r || err != nil || fault != nil {
					t.Errorf("PE %d round %d: release returned %d, %v; fault %v", p.ID, r, off, err, fault)
				}
				log.left[p.ID] = true
				p.Barrier(10, barrierCall) // everybody has marked itself; nobody has reset yet
				log.left[p.ID] = false
			}
			if p.ID == 0 {
				gens = w.Metrics().Rendezvous
			}
		})
		if err != nil {
			t.Fatalf("n=%d shards=%d: %v", tc.n, tc.shards, err)
		}
		if len(log.args) != rounds || log.early != 0 {
			t.Fatalf("n=%d shards=%d: action ran %d times over %d rendezvous, %d participants had left before it",
				tc.n, tc.shards, len(log.args), rounds, log.early)
		}
		rel := 0.0
		for r := range log.args {
			rel += float64(tc.n) * 1.5 // the last rank arrives latest
			if log.args[r] != int64(r) || log.rels[r] != rel {
				t.Errorf("n=%d shards=%d: run %d got arg %d at %v, want %d at %v",
					tc.n, tc.shards, r, log.args[r], log.rels[r], r, rel)
			}
			rel += 20
		}
		if gens != 2*rounds {
			t.Errorf("n=%d shards=%d: %d barrier generations, want %d", tc.n, tc.shards, gens, 2*rounds)
		}
	}
}

// A rendezvous released by a departure — one PE returns while all the others
// are asleep in the barrier — still runs their action, once, and hands them
// the departure as status.
func TestReleaseActionRunsWhenADepartureReleases(t *testing.T) {
	for _, tc := range []struct{ n, shards, quitter int }{{2, 0, 0}, {5, 5, 4}, {300, 7, 150}} {
		w, err := newWorldShards(testMachine(), tc.n, Options{}, tc.shards)
		if err != nil {
			t.Fatal(err)
		}
		log := &actionLog{left: make([]bool, tc.n)}
		err = w.Run(func(p *PE) {
			if p.ID == tc.quitter {
				for w.awake.Load() > 1 {
					runtime.Gosched()
				}
				return
			}
			_, _, err := p.BarrierStat(10, Call{Op: "Log", Arg: 7, Release: logRelease, On: log})
			log.left[p.ID] = true
			if fe, ok := err.(*ImageFault); !ok || len(fe.Stopped) != 1 || fe.Stopped[0] != tc.quitter {
				t.Errorf("PE %d: status %v, want stopped PE %d", p.ID, err, tc.quitter)
			}
		})
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if len(log.args) != 1 || log.args[0] != 7 || log.early != 0 {
			t.Errorf("n=%d: action ran with %v, %d participants had left before it; want one run with 7",
				tc.n, log.args, log.early)
		}
	}
}

// TestDeterminismCollectiveMismatch: one PE brings another size to a
// collective allocation that the others bring 64 to. Whatever the shard
// layout, the run, GOMAXPROCS, and whether the last PE departs once the
// others sleep in that rendezvous or have unwound from it, the world is
// poisoned with the same verdict naming the same two calls, and the
// generation's release action never runs — the two good generations before
// it run theirs once each. The PEs named may differ: which of the others
// meets the odd one first is the host's to decide. On two shards of 4 PEs the
// odd PE's shard is completed by the departure, so the departure's report
// reveals the mismatch at the root; a lone PE meets nobody, so the smallest
// layout holds three.
func TestDeterminismCollectiveMismatch(t *testing.T) {
	verdict := regexp.MustCompile(`^pgas: collective-mismatch: PE \d+ called (Malloc\(\d+\)) and PE \d+ called (Malloc\(\d+\)) at one rendezvous`)
	want := "[Malloc(128) Malloc(64)], 2 releases"
	for _, tc := range []struct{ n, shards int }{{3, 0}, {4, 2}, {5, 5}, {300, 7}} {
		for _, depart := range []bool{false, true} {
			odd, quitter := tc.n/2, tc.n-1
			for run := 0; run < 2; run++ {
				w, err := newWorldShards(testMachine(), tc.n, Options{}, tc.shards)
				if err != nil {
					t.Fatal(err)
				}
				log := &actionLog{left: make([]bool, tc.n)}
				err = w.Run(func(p *PE) {
					malloc := func(size int64) {
						if _, _, fault := p.BarrierStat(10, Call{Op: "Malloc", Arg: size, Release: logRelease, On: log}); fault != nil {
							t.Errorf("PE %d: %v", p.ID, fault)
						}
					}
					malloc(64)
					malloc(64)
					switch {
					case depart && p.ID == quitter:
						for w.awake.Load() > 1 {
							runtime.Gosched()
						}
					case p.ID == odd:
						malloc(128)
					default:
						malloc(64)
					}
				})
				got := "no mismatch"
				if m := verdict.FindStringSubmatch(fmt.Sprint(err)); m != nil {
					calls := m[1:]
					slices.Sort(calls)
					got = fmt.Sprint(calls)
				}
				if got += fmt.Sprintf(", %d releases", len(log.args)); got != want {
					t.Errorf("n=%d shards=%d depart=%v run %d: %s (Run = %v), want %s", tc.n, tc.shards, depart, run, got, err, want)
				}
				w.Close()
			}
		}
	}
}
