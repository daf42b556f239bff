package caf_test

import (
	"reflect"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/dht"
	"cafshmem/internal/fabric"
	"cafshmem/internal/himeno"
)

// Chaos over the lossy-fabric reliability layer: message drops, delay jitter
// and duplication drawn from a seeded plan, alone and combined with a
// mid-run kill, on each of chaosTransports. The properties checked extend the kill-only chaos suite's:
//
//   - retransmission is real work, not a no-op (forensics show retries and
//     suppressed duplicates) yet payloads land intact, exactly once;
//   - runs never hang — they complete, report a STAT, or error-terminate,
//     always within the test's own deadline;
//   - the whole run — virtual times, solver output, STATs, and the per-link
//     forensic counters — replays bit-identically from the same plan.
//
// Loss draws are a pure function of (plan seed, src, dst, seq, attempt), and
// the workloads below route every fault observation through deterministic
// points (signal waits and barriers), so unlike the lock-contention chaos
// runs these assert exact replay.

// lossRule is the all-links loss episode the combined-fault tests use: heavy
// enough to force retransmissions and duplicates, light enough that retry
// exhaustion (0.36^7 per message) stays out of these seeds' draws.
func lossRule(fromNs, toNs float64) fabric.LinkLoss {
	return fabric.LinkLoss{Src: -1, Dst: -1, FromNs: fromNs, ToNs: toNs,
		DropProb: 0.2, DelayMaxNs: 2500, DupProb: 0.08}
}

func sumRetries(reports []caf.LinkReport) (retries, dups uint64) {
	for _, r := range reports {
		retries += r.Retries
		dups += r.DupsSuppressed
	}
	return
}

// --- Himeno, signal-driven overlap schedule ---

// himenoLossRun is one fault-aware signal-overlap solve under plan.
func himenoLossRun(t *testing.T, opts caf.Options, plan *fabric.FaultPlan) himeno.Result {
	t.Helper()
	prm := himeno.Params{NX: 16, NY: 16, NZ: 8, Iters: 6, FaultAware: true, Overlap: true}
	res, err := himeno.Run(withPlan(opts, plan), 4, prm)
	if err != nil {
		t.Fatalf("plan %v: himeno run errored (hang or panic): %v", plan, err)
	}
	return res
}

// TestChaosLossHimenoOverlap runs the signal-overlap solver under pure
// message loss: every halo plane and doorbell crosses a dropping, jittering,
// duplicating fabric, and the run must still converge to the exact blocking
// residual, with the protocol's work visible in the forensics.
func TestChaosLossHimenoOverlap(t *testing.T) {
	for _, tr := range chaosTransports {
		t.Run(tr.name, func(t *testing.T) { chaosLossHimenoOverlap(t, tr.opts) })
	}
}

func chaosLossHimenoOverlap(t *testing.T, opts caf.Options) {
	for _, seed := range []uint64{51, 52, 53} {
		plan := fabric.RandomPlan(seed, 4, 0, 0, 0)
		plan.Losses = []fabric.LinkLoss{lossRule(0, 0)}
		r1 := himenoLossRun(t, opts, plan)
		if r1.Stat != caf.StatOK || r1.Iters != 6 {
			t.Errorf("seed %d: stat=%v iters=%d, want STAT_OK and 6", seed, r1.Stat, r1.Iters)
		}
		retries, dups := sumRetries(r1.Forensics)
		if retries == 0 {
			t.Errorf("seed %d: no retransmissions under 20%% drop", seed)
		}
		if dups == 0 {
			t.Errorf("seed %d: no duplicates suppressed under dup injection", seed)
		}
		// The payloads must be exactly the loss-free ones: same residual.
		base := himenoLossRun(t, opts, nil)
		if r1.Gosa != base.Gosa {
			t.Errorf("seed %d: lossy gosa %v != loss-free %v (payload corruption)", seed, r1.Gosa, base.Gosa)
		}
		if r1.TimeMs <= base.TimeMs {
			t.Errorf("seed %d: lossy run (%vms) not slower than loss-free (%vms)", seed, r1.TimeMs, base.TimeMs)
		}
		// Bit-identical replay, forensic counters included.
		r2 := himenoLossRun(t, opts, plan)
		if r1.TimeMs != r2.TimeMs || r1.Gosa != r2.Gosa || !reflect.DeepEqual(r1.Forensics, r2.Forensics) {
			t.Errorf("seed %d: replay diverged: (%v,%v,%v) vs (%v,%v,%v)",
				seed, r1.TimeMs, r1.Gosa, r1.Forensics, r2.TimeMs, r2.Gosa, r2.Forensics)
		}
	}
}

// TestChaosLossHimenoOverlapWithKill combines message loss with a mid-solve
// kill: the victim's neighbours observe it through WaitStat (signal that can
// no longer come), the rest through the per-iteration barrier, and the
// cut-short degraded run still replays bit-identically.
func TestChaosLossHimenoOverlapWithKill(t *testing.T) {
	for _, tr := range chaosTransports {
		t.Run(tr.name, func(t *testing.T) { chaosLossHimenoOverlapWithKill(t, tr.opts) })
	}
}

func chaosLossHimenoOverlapWithKill(t *testing.T, opts caf.Options) {
	base := himenoLossRun(t, opts, nil)
	durNs := base.TimeMs * 1e6
	for _, seed := range []uint64{61, 62} {
		plan := fabric.RandomPlan(seed, 4, 1, 0.3*durNs, 0.7*durNs)
		plan.Losses = []fabric.LinkLoss{lossRule(0, 0)}
		r1 := himenoLossRun(t, opts, plan)
		if r1.Stat != caf.StatFailedImage {
			t.Errorf("seed %d: stat = %v, want STAT_FAILED_IMAGE", seed, r1.Stat)
		}
		if r1.Iters >= 6 {
			t.Errorf("seed %d: completed %d iterations despite a mid-solve kill", seed, r1.Iters)
		}
		if retries, _ := sumRetries(r1.Forensics); retries == 0 {
			t.Errorf("seed %d: no retransmissions before the kill", seed)
		}
		r2 := himenoLossRun(t, opts, plan)
		if r1.TimeMs != r2.TimeMs || r1.Gosa != r2.Gosa || r1.Iters != r2.Iters ||
			r1.Stat != r2.Stat || !reflect.DeepEqual(r1.Forensics, r2.Forensics) {
			t.Errorf("seed %d: replay diverged: (%v,%v,%d,%v) vs (%v,%v,%d,%v)",
				seed, r1.TimeMs, r1.Gosa, r1.Iters, r1.Stat, r2.TimeMs, r2.Gosa, r2.Iters, r2.Stat)
		}
	}
}

// --- DHT, batched direct updates ---

// dhtLossOutcome is everything one combined-fault DHT run determines.
type dhtLossOutcome struct {
	stats     []caf.Stat
	obsRound  []int
	applied   []int
	times     []float64
	forensics []caf.LinkReport
}

// dhtLossRun drives dht.UpdateBatchAt under loss with a concurrent kill.
// Batches flow between survivors only (the victim, known from the plan, is
// nobody's target and issues none itself — it just computes and syncs until
// it dies), so every fault observation happens at a barrier and the run is
// exactly replayable; the batch traffic itself still crosses the lossy
// fabric with locks held.
func dhtLossRun(t *testing.T, opts caf.Options, seed uint64) dhtLossOutcome {
	t.Helper()
	const n, rounds, batch, buckets = 4, 10, 6, 64
	plan := fabric.RandomPlan(seed, n, 1, 100_000, 600_000)
	plan.Losses = []fabric.LinkLoss{lossRule(0, 0)}
	victim := plan.Kills[0].PE + 1

	out := dhtLossOutcome{
		stats:    make([]caf.Stat, n),
		obsRound: make([]int, n),
		applied:  make([]int, n),
		times:    make([]float64, n),
	}
	for i := range out.obsRound {
		out.obsRound[i] = -1
	}
	err := caf.Run(n, withPlan(opts, plan), func(img *caf.Image) {
		me := img.ThisImage()
		tbl := dht.New(img, buckets)
		right := me%n + 1
		if right == victim {
			right = right%n + 1
		}
		slots := make([]int, batch)
		deltas := make([]int64, batch)
		for r := 0; r < rounds; r++ {
			if me == victim {
				img.Clock().Advance(5000) // computes until its kill time
			} else {
				for b := range slots {
					slots[b] = (r*batch + b) % buckets
					deltas[b] = 1
				}
				tbl.UpdateBatchAt(right, slots, deltas)
				out.applied[me-1] += batch
			}
			if s := img.SyncAllStat(); s != caf.StatOK {
				out.stats[me-1] = s
				out.obsRound[me-1] = r
				break
			}
		}
		out.times[me-1] = img.Clock().Now()
		if me == 1 {
			out.forensics = img.LinkReports()
		}
	})
	if err != nil {
		t.Fatalf("seed %d: chaos DHT batch run errored (hang or panic): %v", seed, err)
	}
	return out
}

// TestChaosLossDHTBatchWithKill: batched locked updates under drop/jitter/dup
// with a mid-run kill. Survivors all observe the kill at the same barrier
// generation, their update streams are exactly-once despite retransmission,
// and the run replays bit-identically.
func TestChaosLossDHTBatchWithKill(t *testing.T) {
	for _, tr := range chaosTransports {
		t.Run(tr.name, func(t *testing.T) { chaosLossDHTBatchWithKill(t, tr.opts) })
	}
}

func chaosLossDHTBatchWithKill(t *testing.T, opts caf.Options) {
	for _, seed := range []uint64{71, 72} {
		o1 := dhtLossRun(t, opts, seed)
		obs := -1
		for pe, s := range o1.stats {
			if !isLegalStat(s) {
				t.Errorf("seed %d: image %d illegal stat %v", seed, pe+1, s)
			}
			if s == caf.StatFailedImage {
				if obs == -1 {
					obs = o1.obsRound[pe]
				} else if o1.obsRound[pe] != obs {
					t.Errorf("seed %d: image %d observed the kill at round %d, others at %d",
						seed, pe+1, o1.obsRound[pe], obs)
				}
			}
		}
		if obs == -1 {
			t.Errorf("seed %d: no image observed the kill (window missed the run)", seed)
		}
		if retries, _ := sumRetries(o1.forensics); retries == 0 {
			t.Errorf("seed %d: no retransmissions under 20%% drop", seed)
		}
		o2 := dhtLossRun(t, opts, seed)
		if !reflect.DeepEqual(o1, o2) {
			t.Errorf("seed %d: replay diverged:\n%+v\nvs\n%+v", seed, o1, o2)
		}
	}
}
