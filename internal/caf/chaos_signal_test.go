package caf_test

import (
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
	"cafshmem/internal/himeno"
)

// Chaos over the signal-pair layer: a producer streaming fused data+signal
// puts is killed at a seeded virtual time — possibly between posting a signal
// and the consumer's wait on it. Invariants: the consumer never hangs (WaitStat
// surfaces STAT_FAILED_IMAGE), a signal that arrived before the death wins and
// its data is delivered intact, and the whole run replays bit-identically from
// the same seed, on each of chaosTransports.
//
// The consumer returns a credit for every round it consumes and the producer
// posts round r+1 only on the credit for round r — the pacing Himeno's signal
// schedule gets from its per-iteration reduction. Without it the replay is not
// a function of the seed: a wait merges the visibility time of the *latest*
// write to its flag word (the timestamp index keeps one time per word), so a
// consumer that a free-running producer has overtaken in *host* time adopts a
// later round's time than its own, and how often that happens is the host
// scheduler's to decide (the unpaced form of this test diverged in 1-8 % of
// runs). That limit of the model is recorded in CHANGES.md for the roadmap.

const chaosSignalRounds = 20

// chaosSignalRun returns the consumer's per-round stats (trimmed at the first
// non-OK), its final virtual time, and the victim's kill plan.
func chaosSignalRun(t *testing.T, opts caf.Options, seed uint64) ([]caf.Stat, float64) {
	t.Helper()
	// 2 images: RandomPlan spares PE 0, so the victim is always image 2 — the
	// producer. Kill window sits mid-stream: rounds advance 4000 ns each, so
	// some signals land before the death and some never will.
	plan := fabric.RandomPlan(seed, 2, 1, 20000, 76000)
	var stats []caf.Stat
	var consumerT float64
	err := caf.Run(2, withPlan(opts, plan), func(img *caf.Image) {
		x := caf.Allocate[int64](img, 16)
		sig := caf.NewSignal(img)
		credit := caf.NewSignal(img)
		if img.ThisImage() == 2 {
			// Producer: await the credit, compute, then fused put-with-signal —
			// the only fault points are the op boundaries, so the death lands
			// between two signal posts, deterministically in virtual time.
			vals := make([]int64, 16)
			for r := 1; r <= chaosSignalRounds; r++ {
				if r > 1 {
					credit.Wait(1)
				}
				img.Clock().Advance(4000)
				for i := range vals {
					vals[i] = int64(r*1000 + i)
				}
				x.PutFullSignalAsync(1, vals, sig)
			}
			img.SyncMemory()
		} else {
			for r := 1; r <= chaosSignalRounds; r++ {
				s := sig.WaitStat(2)
				stats = append(stats, s)
				if s != caf.StatOK {
					break
				}
				// Signal-mediated completion must survive the chaos: an OK wait
				// means round r arrived complete, and round r+1 cannot have
				// been posted yet.
				for i, v := range x.Slice() {
					if v != int64(r*1000+i) {
						t.Errorf("seed %d round %d: elem %d = %d torn or stale after OK wait", seed, r, i, v)
					}
				}
				credit.Notify(2) // dropped if the producer has died meanwhile
			}
			consumerT = img.Clock().Now()
		}
	})
	if err != nil {
		t.Fatalf("seed %d: chaos signal run errored (consumer hang or panic): %v", seed, err)
	}
	return stats, consumerT
}

func TestChaosSignalProducerKilled(t *testing.T) {
	for _, tr := range chaosTransports {
		t.Run(tr.name, func(t *testing.T) { chaosSignalProducerKilled(t, tr.opts) })
	}
}

func chaosSignalProducerKilled(t *testing.T, opts caf.Options) {
	for _, seed := range []uint64{21, 22, 23, 24} {
		stats, time1 := chaosSignalRun(t, opts, seed)
		okRounds := 0
		for _, s := range stats {
			if !isLegalStat(s) {
				t.Errorf("seed %d: illegal stat %v", seed, s)
			}
			if s == caf.StatOK {
				okRounds++
			}
		}
		// The producer's 20 rounds span more than 80000 ns of virtual time and
		// the kill window closes at 76000 ns: it always dies mid-stream, after
		// at least one signal got out.
		if okRounds == 0 {
			t.Errorf("seed %d: no signal ever arrived; kill landed before round 1", seed)
		}
		if okRounds == len(stats) {
			t.Errorf("seed %d: consumer consumed all %d rounds; producer death was never observed", seed, okRounds)
		} else if last := stats[len(stats)-1]; last != caf.StatFailedImage {
			t.Errorf("seed %d: wait on the dead producer = %v, want STAT_FAILED_IMAGE", seed, last)
		}

		// Same seed, same virtual-time interleaving: stats and clock replay
		// identically.
		stats2, time2 := chaosSignalRun(t, opts, seed)
		if len(stats) != len(stats2) || time1 != time2 {
			t.Fatalf("seed %d: replay diverged: %d rounds @%v vs %d rounds @%v",
				seed, len(stats), time1, len(stats2), time2)
		}
		for r := range stats {
			if stats[r] != stats2[r] {
				t.Errorf("seed %d round %d: stat %v != replay %v", seed, r+1, stats[r], stats2[r])
			}
		}
	}
}

// The barrier-free Himeno schedule under chaos: with signals carrying all
// steady-state synchronisation, a mid-solve death must still surface as
// STAT_FAILED_IMAGE on every survivor (via the neighbour waits' STAT form and
// the FaultAware reduction guard), cut the run short, and replay identically —
// no hangs despite there being no per-iteration barrier to rendezvous at on
// the fault-free path.
func TestChaosHimenoSignalOverlap(t *testing.T) {
	for _, tr := range chaosTransports {
		t.Run(tr.name, func(t *testing.T) { chaosHimenoSignalOverlap(t, tr.opts) })
	}
}

func chaosHimenoSignalOverlap(t *testing.T, opts caf.Options) {
	prm := himeno.Params{NX: 16, NY: 16, NZ: 8, Iters: 8, FaultAware: true, Overlap: true}
	const images = 4

	base, err := himeno.Run(withPlan(opts, nil), images, prm)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stat != caf.StatOK || base.Iters != prm.Iters {
		t.Fatalf("fault-free FaultAware signal run: stat=%v iters=%d, want STAT_OK and %d", base.Stat, base.Iters, prm.Iters)
	}
	durNs := base.TimeMs * 1e6

	for _, seed := range []uint64{41, 42, 43} {
		plan := fabric.RandomPlan(seed, images, 1, 0.3*durNs, 0.7*durNs)
		r1, err := himeno.Run(withPlan(opts, plan), images, prm)
		if err != nil {
			t.Fatalf("seed %d: chaos signal-himeno run errored (survivor hang or panic): %v", seed, err)
		}
		if r1.Stat != caf.StatFailedImage {
			t.Errorf("seed %d: stat = %v, want STAT_FAILED_IMAGE", seed, r1.Stat)
		}
		if r1.Iters >= prm.Iters {
			t.Errorf("seed %d: completed %d iterations despite a mid-solve kill", seed, r1.Iters)
		}
		r2, err := himeno.Run(withPlan(opts, plan), images, prm)
		if err != nil {
			t.Fatalf("seed %d: replay errored: %v", seed, err)
		}
		if r1.TimeMs != r2.TimeMs || r1.Gosa != r2.Gosa || r1.Stat != r2.Stat || r1.Iters != r2.Iters {
			t.Errorf("seed %d: replay diverged: (%v,%v,%v,%d) vs (%v,%v,%v,%d)",
				seed, r1.TimeMs, r1.Gosa, r1.Stat, r1.Iters, r2.TimeMs, r2.Gosa, r2.Stat, r2.Iters)
		}
	}
}
