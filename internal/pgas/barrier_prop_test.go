package pgas

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"cafshmem/internal/fabric"
)

// Property test for the sharded combining-tree barrier: for random arrival
// orders, shard counts, and mid-rendezvous departs, the sharded barrier's
// release time and error status must equal the flat counting barrier's. The
// flat barrier — the pre-tree implementation — is kept here as the test
// oracle, not as a shipped mode: its single mutex and single counter make its
// semantics obviously correct, and the tree must be observationally
// indistinguishable from it.

// flatBarrier is the oracle: the old flat counting barrier, one mutex, one
// counter and one condition variable, driven from plain test goroutines.
type flatBarrier struct {
	mu     sync.Mutex
	cond   *sync.Cond
	w      *World
	n      int // alive participants
	count  int
	gen    uint64
	maxT   float64
	outT   float64
	outErr error
}

func newFlatBarrier(w *World, n int) *flatBarrier {
	b := &flatBarrier{w: w, n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *flatBarrier) release() {
	b.count = 0
	b.outT = b.maxT
	b.maxT = 0
	b.outErr = b.w.imageFaultErr()
	b.gen++
	b.cond.Broadcast()
}

func (b *flatBarrier) await(arriveT float64) (float64, error) {
	b.mu.Lock()
	if arriveT > b.maxT {
		b.maxT = arriveT
	}
	b.count++
	if b.count == b.n {
		b.release()
		outT, outErr := b.outT, b.outErr
		b.mu.Unlock()
		return outT, outErr
	}
	gen := b.gen
	for b.gen == gen {
		b.cond.Wait()
	}
	outT, outErr := b.outT, b.outErr
	b.mu.Unlock()
	return outT, outErr
}

func (b *flatBarrier) depart() {
	b.mu.Lock()
	b.n--
	if b.n > 0 && b.count == b.n {
		b.release()
	}
	b.mu.Unlock()
}

// barrierEvent is one scripted step of a generation: an arrival (PE id at
// virtual time t) or a mid-rendezvous departure of a PE that has not yet
// arrived this generation.
type barrierEvent struct {
	id     int
	t      float64
	depart bool
	state  peState
}

// barrierScript is a deterministic multi-generation scenario: per generation,
// a shuffled arrival order over the PEs still alive, with departures spliced
// in at random positions. Departing PEs never arrive in their generation
// (an arrived PE is blocked in the rendezvous and cannot depart), and at
// least two PEs survive the whole script so every generation releases. With
// departLast, every generation that can spare a PE ends in a departure, so a
// departure, not an arrival, runs its release (combine with self nil) while
// its other departures stay spliced among the arrivals.
func barrierScript(rng *rand.Rand, n, gens int, departLast bool) [][]barrierEvent {
	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}
	script := make([][]barrierEvent, 0, gens)
	for g := 0; g < gens; g++ {
		var evs []barrierEvent
		rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
		nDepart := 0
		if len(alive) > 2 && (departLast || rng.Intn(2) == 0) {
			nDepart = 1 + rng.Intn(min(3, len(alive)-2))
		}
		// The first nDepart of the shuffled order depart; the rest arrive.
		for _, id := range alive[nDepart:] {
			evs = append(evs, barrierEvent{id: id, t: float64(rng.Intn(1000))})
		}
		for _, id := range alive[:nDepart] {
			st := stateFailed
			if rng.Intn(2) == 0 {
				st = stateStopped
			}
			ev := barrierEvent{id: id, depart: true, state: st}
			pos := rng.Intn(len(evs) + 1)
			if departLast {
				pos = len(evs) // the first departer; the later ones go in before it
				if id != alive[0] {
					pos = rng.Intn(len(evs))
				}
			}
			evs = append(evs[:pos], append([]barrierEvent{ev}, evs[pos:]...)...)
		}
		alive = alive[nDepart:]
		script = append(script, evs)
	}
	return script
}

// runSharded drives one script against the shipped sharded barrier on a world
// built with the given shard override, sequencing arrivals one at a time so
// the arrival order is exactly the script's. It returns per generation the
// (outT, errString) each arriving PE observed, keyed by PE id.
func runSharded(t *testing.T, script [][]barrierEvent, n, shards int) []map[int]string {
	t.Helper()
	w, err := newWorldShards(fabric.Stampede(), n, Options{}, shards)
	if err != nil {
		t.Fatal(err)
	}
	b := w.barrier
	count := func() int {
		c := 0
		for i := range b.shards {
			sh := &b.shards[i]
			sh.mu.Lock()
			c += sh.count
			sh.mu.Unlock()
		}
		return c
	}
	gen := func() uint64 {
		sh := &b.shards[0]
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.gen
	}
	return driveScript(t, script,
		func(id int, at float64) (float64, error) { return b.await(w.PE(id), at, barrierCall) },
		func(id int, st peState) { w.depart(w.PE(id), st) },
		count, gen)
}

// runFlat drives the same script against the flat oracle. Departure fault
// state is mirrored through the world (the oracle snapshots imageFaultErr
// exactly as the flat barrier did); the world's own sharded barrier sees the
// depart too, but has no waiters and no observers in this run.
func runFlat(t *testing.T, script [][]barrierEvent, n int) []map[int]string {
	t.Helper()
	w, err := NewWorld(fabric.Stampede(), n)
	if err != nil {
		t.Fatal(err)
	}
	b := newFlatBarrier(w, n)
	count := func() int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.count
	}
	gen := func() uint64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.gen
	}
	return driveScript(t, script,
		func(id int, at float64) (float64, error) { return b.await(at) },
		func(id int, st peState) {
			w.depart(w.PE(id), st)
			b.depart()
		},
		count, gen)
}

// driveScript executes the script against one barrier implementation:
// arrivals run on their own goroutines and are sequenced by polling the
// barrier's registered-arrival count (or its generation, for the arrival
// that completes the rendezvous), departs run synchronously in script order.
func driveScript(t *testing.T, script [][]barrierEvent,
	await func(id int, at float64) (float64, error),
	depart func(id int, st peState),
	count func() int, gen func() uint64) []map[int]string {
	t.Helper()
	type result struct {
		id  int
		out string
	}
	results := make([]map[int]string, len(script))
	for g, evs := range script {
		startGen := gen()
		ch := make(chan result, len(evs))
		arrived := 0
		for _, ev := range evs {
			if ev.depart {
				depart(ev.id, ev.state)
				continue
			}
			go func(ev barrierEvent) {
				outT, err := await(ev.id, ev.t)
				ch <- result{ev.id, fmt.Sprintf("t=%v err=%v", outT, err)}
			}(ev)
			arrived++
			waitUntilTrue(t, func() bool {
				return count() >= arrived || gen() > startGen
			})
		}
		results[g] = make(map[int]string, arrived)
		for i := 0; i < arrived; i++ {
			select {
			case r := <-ch:
				results[g][r.id] = r.out
			case <-time.After(10 * time.Second):
				t.Fatalf("generation %d: barrier never released (%d/%d results)", g, i, arrived)
			}
		}
	}
	return results
}

func waitUntilTrue(t *testing.T, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for barrier registration")
		}
		runtime.Gosched()
	}
}

// TestBarrierTreeMatchesFlatOracle is the property test: random scripts ×
// shard layouts, sharded results must equal the flat oracle's exactly. Half
// the scripts end every generation they can in a departure, so releases run
// from arrivals and from departures, whose wake fan-out starts from a PE that
// is not in the barrier.
func TestBarrierTreeMatchesFlatOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, departLast := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			n := 3 + rng.Intn(30)
			if departLast {
				n += 8 // room for a departure in every generation
			}
			script := barrierScript(rng, n, 4, departLast)
			want := runFlat(t, script, n)
			for _, shards := range []int{1, 2, 3, 4, n, n + 7} {
				got := runSharded(t, script, n, shards)
				for g := range want {
					for id, w := range want[g] {
						if got[g][id] != w {
							t.Errorf("seed=%d departLast=%v n=%d shards=%d gen=%d PE %d: sharded %q, flat oracle %q",
								seed, departLast, n, shards, g, id, got[g][id], w)
						}
					}
					if len(got[g]) != len(want[g]) {
						t.Errorf("seed=%d departLast=%v n=%d shards=%d gen=%d: %d sharded results, oracle %d",
							seed, departLast, n, shards, g, len(got[g]), len(want[g]))
					}
				}
			}
		}
	}
}

// TestBarrierShardLayoutInvariance runs a full SPMD program — barriers with
// laggard clocks plus a mid-run failure on the STAT path — across shard
// layouts and requires bit-identical per-PE release times on all of them,
// inside a Run (the oracle comparison above drives the barrier from outside
// one).
func TestBarrierShardLayoutInvariance(t *testing.T) {
	const n = 12
	var want []string
	for _, shards := range []int{0, 1, 5, n + 3} {
		w, err := newWorldShards(fabric.Stampede(), n, Options{}, shards)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, n)
		err = w.Run(func(p *PE) {
			p.Clock.Advance(float64(p.ID * 10))
			p.Barrier(5, barrierCall)
			if p.ID == n-1 {
				p.Fail()
			}
			_, _, berr := p.BarrierStat(0, barrierCall)
			got[p.ID] = fmt.Sprintf("t1=%v err=%v", p.Clock.Now(), berr)
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		got[n-1] = "failed"
		if want == nil {
			want = got
			continue
		}
		for id := range got {
			if got[id] != want[id] {
				t.Errorf("shards=%d PE %d: %q, want %q (layout must not change modelled results)",
					shards, id, got[id], want[id])
			}
		}
	}
}
