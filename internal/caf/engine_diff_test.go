package caf_test

// Determinism differential (the tests keep the names they had when a second
// execution engine stood in for "another host schedule"): the same random
// program — one-sided puts/gets, nonblocking puts with per-image completion,
// locks, fetch-adds, put-with-signal notify/wait, and STAT-bearing barriers,
// optionally under a seeded lossy/killing fault plan — must produce
// bit-identical virtual times, Stat outcomes, operation counters, payload
// checksums, and link forensics run after run, whatever the barrier shard
// layout and (check.sh runs these at -cpu 1,2,8) whatever GOMAXPROCS. How
// images get host time, and how barrier arrivals combine, is host-side
// machinery only; nothing it decides may leak into the simulation.
//
// Determinism of the *program* (so that any divergence is the substrate's
// fault) comes from two rules, the same ones the chaos replay tests use:
//
//   - Contended resources are touched through a per-round permutation whose
//     shift is derived from (seed, round) alone: every lock, atomic and
//     signal slot has exactly one contender per round, so acquisition order
//     can never depend on host scheduling.
//   - Cross-image data dependencies are separated by SyncAllStat barriers:
//     a round reads only what the previous round's barrier made stable, and
//     fault observations happen at deterministic barrier generations (the
//     plan's victim is nobody's target — it computes and syncs until it
//     dies, exactly the dhtLossRun protocol).

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
)

// diffOutcome is everything one differential run determines. Two runs of the
// same (seed, plan) must be DeepEqual.
type diffOutcome struct {
	Times    []float64        // final virtual clock per image
	Stats    []caf.Stat       // first non-OK sync stat per image (OK if none)
	ObsRound []int            // round where that stat was observed (-1 = never)
	Fetched  [][]int64        // per image: FetchAdd return value per round
	Sums     []int64          // per image: checksum of all Get payloads
	WaitSeen [][]caf.Stat     // per image: signal WaitStat result per round
	OpStats  []caf.Stats      // per image: runtime op counters
	Reports  []caf.LinkReport // image 1's reliability forensics
	GaveUp   bool             // some sender exhausted its retries on a link
}

// diffSplitmix is the same mix the dht key stream uses; here it derives the
// per-round permutation shifts and put payloads from (seed, round, image).
func diffSplitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// diffRun executes the random program for (seed, plan) on the given barrier
// shard layout (0 = auto), and fails the test if the run errors.
func diffRun(t *testing.T, seed uint64, plan *fabric.FaultPlan, shards int) diffOutcome {
	t.Helper()
	out, err := diffRunErr(seed, plan, shards)
	if err != nil {
		t.Fatalf("seed %d shards=%d: run errored (deadlock verdict or panic): %v", seed, shards, err)
	}
	return out
}

// diffRunErr is diffRun returning the run's error, with whatever the images
// had recorded when the world was poisoned.
func diffRunErr(seed uint64, plan *fabric.FaultPlan, shards int) (diffOutcome, error) {
	const n, rounds, span = 6, 10, 8

	// Survivors (images the plan never kills) form the permutation domain;
	// victims are excluded up front so their deaths are observed only at
	// barriers, never mid-wait on a signal that cannot come.
	victim := map[int]bool{}
	if plan != nil {
		for _, k := range plan.Kills {
			victim[k.PE+1] = true
		}
	}
	surv := []int{}
	for i := 1; i <= n; i++ {
		if !victim[i] {
			surv = append(surv, i)
		}
	}
	m := len(surv)
	rank := map[int]int{} // image -> index in surv
	for k, img := range surv {
		rank[img] = k
	}

	out := diffOutcome{
		Times:    make([]float64, n),
		Stats:    make([]caf.Stat, n),
		ObsRound: make([]int, n),
		Fetched:  make([][]int64, n),
		Sums:     make([]int64, n),
		WaitSeen: make([][]caf.Stat, n),
		OpStats:  make([]caf.Stats, n),
	}
	for i := range out.ObsRound {
		out.ObsRound[i] = -1
	}

	var gaveUp atomic.Bool
	opts := chaosOpts(plan)
	opts.BarrierShards = shards
	err := caf.Run(n, opts, func(img *caf.Image) {
		me := img.ThisImage()
		x := caf.Allocate[int64](img, span)
		lk := caf.NewLock(img)
		av := caf.NewAtomicVar(img)
		sig := caf.NewSignal(img)
		if s := img.SyncAllStat(); s != caf.StatOK {
			out.Stats[me-1] = s
			out.ObsRound[me-1] = 0
			return
		}
		vals := make([]int64, span)
		for r := 0; r < rounds; r++ {
			if victim[me] {
				img.Clock().Advance(5000) // computes until its kill time
			} else {
				// Round-wide permutation shift from (seed, round) only:
				// exactly one contender per lock/atomic/signal slot.
				shift := 1 + int(diffSplitmix(seed^uint64(r)*0x1000193)%uint64(m-1))
				k := rank[me]
				target := surv[(k+shift)%m]
				sender := surv[(k-shift+m*rounds)%m]

				// Read what the previous round's barrier made stable.
				for _, v := range x.Get(target, caf.All(span)) {
					out.Sums[me-1] = out.Sums[me-1]*31 + v
				}

				// Blocking put under the target's lock (single contender,
				// but the lock traffic itself crosses the lossy fabric).
				for b := range vals {
					vals[b] = int64(diffSplitmix(seed ^ uint64(me)<<20 ^ uint64(r)<<8 ^ uint64(b)))
				}
				lk.Acquire(target)
				x.PutFull(target, vals)
				lk.Release(target)

				// Nonblocking put + per-image completion, then a signal so
				// the receiver knows this round's async data landed.
				x.PutAsync(target, caf.Section{{Lo: 0, Hi: span/2 - 1, Step: 1}}, vals[:span/2])
				img.SyncMemoryImage(target)
				sig.Notify(target)

				// One fetch-add per target per round: the fetched value is
				// the deterministic sum of earlier rounds' contributions.
				out.Fetched[me-1] = append(out.Fetched[me-1], av.FetchAdd(target, int64(r+1)))

				// Consume the one notify aimed at this image this round.
				out.WaitSeen[me-1] = append(out.WaitSeen[me-1], sig.WaitStat(sender))
			}
			if s := img.SyncAllStat(); s != caf.StatOK {
				out.Stats[me-1] = s
				out.ObsRound[me-1] = r
				break
			}
		}
		out.Times[me-1] = img.Clock().Now()
		out.OpStats[me-1] = img.Stats
		if me == 1 {
			out.Reports = img.LinkReports()
		}
		// Every image looks as it ends, so the one that gave a link up sees it.
		for _, r := range img.LinkReports() {
			if r.Unreachable {
				gaveUp.Store(true)
			}
		}
	})
	out.GaveUp = gaveUp.Load()
	return out, err
}

// diffPlanKinds names the three fault regimes the differential test sweeps:
// loss-free, pure message loss, and loss with one mid-run kill.
var diffPlanKinds = []string{"clean", "loss", "losskill"}

// diffPlans returns the regimes of diffPlanKinds for one seed.
func diffPlans(seed uint64) map[string]*fabric.FaultPlan {
	lossy := fabric.RandomPlan(seed, 6, 0, 0, 0)
	lossy.Losses = []fabric.LinkLoss{lossRule(0, 0)}
	killer := fabric.RandomPlan(seed, 6, 1, 40_000, 250_000)
	killer.Losses = []fabric.LinkLoss{lossRule(0, 0)}
	return map[string]*fabric.FaultPlan{"clean": nil, "loss": lossy, "losskill": killer}
}

// diffShards are the barrier shard layouts TestEngineDifferential compares
// with the reference run (auto: one shard), and with the seeds and regimes the
// seed corpus of FuzzEngineDifferential: a single shard, two, an odd split of
// the 6 images, and more shards than images.
var diffShards = []int{1, 2, 3, 8}

// diffSeeds are the program seeds TestEngineDifferential sweeps.
var diffSeeds = []uint64{101, 202, 303}

// TestEngineDifferential is the replay property: every run of the random
// program, on every barrier shard layout, must agree bit-for-bit with the
// reference run on every observable, in every fault regime.
func TestEngineDifferential(t *testing.T) {
	for _, seed := range diffSeeds {
		for name, plan := range diffPlans(seed) {
			ref := diffRun(t, seed, plan, 0)
			for pe, s := range ref.Stats {
				if !isLegalStat(s) {
					t.Errorf("seed %d %s: image %d illegal stat %v", seed, name, pe+1, s)
				}
			}
			for _, shards := range diffShards {
				for run := 0; run < 2; run++ {
					if got := diffRun(t, seed, plan, shards); !reflect.DeepEqual(ref, got) {
						t.Errorf("seed %d %s: shards=%d run %d diverged from reference:\n%+v\nvs\n%+v",
							seed, name, shards, run, ref, got)
					}
				}
			}
		}
	}
}

// FuzzEngineDifferential is the same property over arbitrary (program seed,
// shard layout, fault regime), as far as the program's determinism rules
// reach. They end where a sender exhausts its retries, which an arbitrary
// seed's loss plan can bring about: a blocking get then error-terminates the
// program by the model's own rules (seed 301), or a STAT-bearing path gives
// the link up and who learns of it at which barrier is the host's choice
// (seed 358: 32 of 200 runs differed at PR 17). So outcomes are compared when
// both runs end clean with no link given up, and the two runs must agree on
// whether the run errors; and always, no run may end in a deadlock verdict:
// under the exact quiescence rule a random program that is ever judged
// deadlocked is a finding.
func FuzzEngineDifferential(f *testing.F) {
	for _, seed := range diffSeeds {
		for kind := range diffPlanKinds {
			for _, shards := range diffShards {
				f.Add(seed, uint8(shards), uint8(kind))
			}
		}
	}
	f.Add(uint64(301), uint8(0x99), uint8(1))
	f.Add(uint64(358), uint8(8), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, shards, kind uint8) {
		plan := diffPlans(seed)[diffPlanKinds[int(kind)%len(diffPlanKinds)]]
		sh := 1 + int(shards)%8
		ref, refErr := diffRunErr(seed, plan, 0)
		got, gotErr := diffRunErr(seed, plan, sh)
		for _, err := range []error{refErr, gotErr} {
			if err != nil && strings.Contains(err.Error(), "pgas: deadlock") {
				t.Fatalf("seed %d kind %d shards=%d: deadlock verdict: %v", seed, kind, sh, err)
			}
		}
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d kind %d: one shard ended with %v, %d shards with %v", seed, kind, refErr, sh, gotErr)
		}
		if refErr == nil && !ref.GaveUp && !got.GaveUp && !reflect.DeepEqual(ref, got) {
			t.Errorf("seed %d kind %d: shards=%d diverged from one shard:\n%+v\nvs\n%+v", seed, kind, sh, ref, got)
		}
	})
}

// TestEngineDifferentialKillObserved pins that the losskill regime actually
// exercises the fault path — a kill window nobody observes would silently
// reduce the differential test to the loss-only case.
func TestEngineDifferentialKillObserved(t *testing.T) {
	seed := uint64(101)
	out := diffRun(t, seed, diffPlans(seed)["losskill"], 2)
	obs := false
	for _, s := range out.Stats {
		if s == caf.StatFailedImage {
			obs = true
		}
	}
	if !obs {
		t.Fatalf("seed %d: no image observed the kill (window missed the run): %+v", seed, out.Stats)
	}
	if retries, _ := sumRetries(out.Reports); retries == 0 {
		t.Fatalf("seed %d: no retransmissions under 20%% drop", seed)
	}
}
