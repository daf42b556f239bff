package pgas

import (
	"runtime"
	"testing"
)

// actionLog is what the test's release action reports through its context:
// each run's argument and release time, and how many participants had already
// left the barrier when it ran (none may have).
type actionLog struct {
	args  []int64
	rels  []float64
	early int
	left  []bool
}

func logRelease(ctx any, arg int64, rel float64) {
	l := ctx.(*actionLog)
	l.args = append(l.args, arg)
	l.rels = append(l.rels, rel)
	for _, gone := range l.left {
		if gone {
			l.early++
		}
	}
}

// A rendezvous that carries a release action runs it exactly once per
// generation with the arrivals' argument and the release time, before any
// participant leaves, on every shard layout; a plain barrier in between runs
// nothing; and the generation count moves by one per rendezvous either way.
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
				if err := p.BarrierTolerantDo(10, logRelease, log, r); err != nil {
					t.Errorf("PE %d: %v", p.ID, err)
				}
				log.left[p.ID] = true
				p.Barrier(10) // everybody has marked itself; nobody has reset yet
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
			err := p.BarrierTolerantDo(10, logRelease, log, 7)
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
