package caf_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cafshmem/internal/caf"
	"cafshmem/internal/dht"
	"cafshmem/internal/fabric"
	"cafshmem/internal/himeno"
	"cafshmem/internal/pgas"
)

// Chaos suite: deterministic fault injection over the paper's workloads.
// Every run uses a seeded fabric.FaultPlan; the properties checked are
//
//   - no survivor ever hangs (a hang would surface as the pgas deadlock
//     report poisoning the world, i.e. a non-nil error from caf.Run);
//   - survivors either succeed or observe StatFailedImage through the
//     STAT-bearing APIs — never a stale success and never a panic;
//   - whatever is virtual-time-deterministic (barrier-observed failures,
//     solver output) replays identically from the same seed.
//
// Observation of a failure through *racing* one-sided operations (a lock or
// DHT update that may run before or after the victim's death in real time)
// is inherently timing-dependent, so those runs assert invariants rather
// than exact replay.

func chaosOpts(plan *fabric.FaultPlan) caf.Options {
	opts := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
	opts.FaultPlan = plan
	return opts
}

func isLegalStat(s caf.Stat) bool {
	return s == caf.StatOK || s == caf.StatFailedImage || s == caf.StatStoppedImage
}

// --- barrier workload ---

const chaosBarrierRounds = 12

// chaosBarrierRun loops compute+SyncAllStat; victims die at their kill times
// (the only fault points are the sync entries, so failures are observed at
// deterministic barrier generations).
func chaosBarrierRun(t *testing.T, seed uint64, n, kills int) ([]float64, [][]caf.Stat) {
	t.Helper()
	plan := fabric.RandomPlan(seed, n, kills, 2000, 60000)
	times := make([]float64, n)
	stats := make([][]caf.Stat, n)
	for i := range stats {
		stats[i] = make([]caf.Stat, chaosBarrierRounds)
	}
	err := caf.Run(n, chaosOpts(plan), func(img *caf.Image) {
		me := img.ThisImage()
		for r := 0; r < chaosBarrierRounds; r++ {
			img.Clock().Advance(7000) // modelled compute phase
			stats[me-1][r] = img.SyncAllStat()
		}
		times[me-1] = img.Clock().Now()
	})
	if err != nil {
		t.Fatalf("seed %d: chaos barrier run errored (survivor hang or panic): %v", seed, err)
	}
	return times, stats
}

func TestChaosBarrier(t *testing.T) {
	for _, tc := range []struct {
		seed  uint64
		n     int
		kills int
	}{{1, 6, 1}, {2, 6, 2}, {3, 8, 3}, {42, 4, 1}} {
		plan := fabric.RandomPlan(tc.seed, tc.n, tc.kills, 2000, 60000)
		victims := map[int]bool{}
		for _, pe := range plan.Victims() {
			victims[pe] = true
		}
		times, stats := chaosBarrierRun(t, tc.seed, tc.n, tc.kills)
		sawFailure := false
		for pe := 0; pe < tc.n; pe++ {
			seenBad := false
			for r, s := range stats[pe] {
				if !isLegalStat(s) {
					t.Errorf("seed %d: image %d round %d: illegal stat %v", tc.seed, pe+1, r, s)
				}
				if s != caf.StatOK {
					seenBad, sawFailure = true, true
				} else if seenBad && !victims[pe] {
					t.Errorf("seed %d: image %d round %d: StatOK after a failure was observed (condition must be sticky)", tc.seed, pe+1, r)
				}
			}
			if !victims[pe] {
				if times[pe] == 0 {
					t.Errorf("seed %d: survivor image %d did not finish", tc.seed, pe+1)
				}
				if stats[pe][chaosBarrierRounds-1] != caf.StatFailedImage {
					t.Errorf("seed %d: survivor image %d final stat = %v, want STAT_FAILED_IMAGE", tc.seed, pe+1, stats[pe][chaosBarrierRounds-1])
				}
			}
		}
		if !sawFailure {
			t.Errorf("seed %d: no failure was ever observed; kill window too late?", tc.seed)
		}

		// Same seed, same everything: times, stats, round-by-round.
		times2, stats2 := chaosBarrierRun(t, tc.seed, tc.n, tc.kills)
		for pe := 0; pe < tc.n; pe++ {
			if times[pe] != times2[pe] {
				t.Errorf("seed %d: image %d time %v != replay %v", tc.seed, pe+1, times[pe], times2[pe])
			}
			for r := range stats[pe] {
				if stats[pe][r] != stats2[pe][r] {
					t.Errorf("seed %d: image %d round %d stat %v != replay %v", tc.seed, pe+1, r, stats[pe][r], stats2[pe][r])
				}
			}
		}
	}
}

// --- contended lock workload ---

// TestChaosLockContended hammers one MCS lock (hosted on never-killed image
// 1) from every image while victims die at randomized times — including while
// holding the lock, which exercises the queue repair. Invariants: no hangs,
// survivors complete every iteration with StatOK (the lock stays live), and
// the lock-protected counter shows mutual exclusion was preserved.
func TestChaosLockContended(t *testing.T) {
	const iters = 25
	for _, tc := range []struct {
		seed  uint64
		n     int
		kills int
	}{{11, 5, 1}, {12, 5, 2}, {13, 6, 2}, {14, 4, 1}} {
		plan := fabric.RandomPlan(tc.seed, tc.n, tc.kills, 3000, 120000)
		victims := map[int]bool{}
		for _, pe := range plan.Victims() {
			victims[pe] = true
		}
		counts := make([]int64, tc.n)
		stats := make([]caf.Stat, tc.n)
		takeovers := make([]int64, tc.n)
		var finalCounter int64
		err := caf.Run(tc.n, chaosOpts(plan), func(img *caf.Image) {
			me := img.ThisImage()
			lck := caf.NewLock(img)
			x := caf.Allocate[int64](img, 1)
			img.SyncAllStat()
			for i := 0; i < iters; i++ {
				stat := lck.AcquireStat(1)
				if stat != caf.StatOK {
					stats[me-1] = stat
					break
				}
				v := x.GetElem(1, 0) // fault point while holding the lock
				x.PutElem(1, v+1, 0) // and another
				if rs := lck.ReleaseStat(1); rs != caf.StatOK {
					stats[me-1] = rs
					break
				}
				counts[me-1]++
			}
			img.SyncAllStat()
			takeovers[me-1] = img.Stats.LockTakeovers
			if me == 1 {
				finalCounter = x.At(0)
			}
		})
		if err != nil {
			t.Fatalf("seed %d: chaos lock run errored (survivor hang or panic): %v", tc.seed, err)
		}
		var completed int64
		for pe := 0; pe < tc.n; pe++ {
			completed += counts[pe]
			if victims[pe] {
				continue
			}
			// Image 1 (the home) is never killed, so survivors always succeed.
			if stats[pe] != caf.StatOK {
				t.Errorf("seed %d: survivor image %d stopped with stat %v", tc.seed, pe+1, stats[pe])
			}
			if counts[pe] != iters {
				t.Errorf("seed %d: survivor image %d completed %d/%d iterations", tc.seed, pe+1, counts[pe], iters)
			}
		}
		// Every completed iteration incremented the counter exactly once under
		// the lock; a victim that died mid-critical-section may have added at
		// most one more. Anything outside that band means mutual exclusion (or
		// an increment) was lost during repair.
		if finalCounter < completed || finalCounter > completed+int64(tc.kills) {
			t.Errorf("seed %d: counter = %d, want within [%d,%d]", tc.seed, finalCounter, completed, completed+int64(tc.kills))
		}
		_ = takeovers // exercised probabilistically; the deterministic test below pins it
	}
}

// TestLockTakeoverAfterHolderFailure pins the repair path deterministically:
// image 2 fails while holding image 1's lock; the remaining contenders must
// recover the lock by takeover (exactly one of them walks the frozen queue),
// keep mutual exclusion, and release cleanly.
func TestLockTakeoverAfterHolderFailure(t *testing.T) {
	const n = 4
	opts := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
	opts.FaultTolerant = true
	stats := make([]caf.Stat, n)
	takeovers := make([]int64, n)
	var finalCounter int64
	err := caf.Run(n, opts, func(img *caf.Image) {
		me := img.ThisImage()
		lck := caf.NewLock(img)
		x := caf.Allocate[int64](img, 1)
		ready := caf.Allocate[int64](img, 1)
		img.SyncAll()
		if me == 2 {
			if s := lck.AcquireStat(1); s != caf.StatOK {
				panic(s)
			}
			x.PutElem(1, 1, 0)
			for j := 1; j <= n; j++ {
				if j != 2 {
					ready.PutElem(j, 1, 0)
				}
			}
			img.FailImage()
		}
		ready.WaitLocal(pgas.CmpEQ, 1, 0)
		// The dead holder's node is at the tail; each of these acquires either
		// takes the lock over (first live successor) or queues behind a live
		// ancestor.
		stats[me-1] = lck.AcquireStat(1)
		if stats[me-1] == caf.StatOK {
			v := x.GetElem(1, 0)
			x.PutElem(1, v+1, 0)
			lck.ReleaseStat(1)
		}
		img.SyncAllStat()
		takeovers[me-1] = img.Stats.LockTakeovers
		if me == 1 {
			finalCounter = x.At(0)
		}
	})
	if err != nil {
		t.Fatalf("run errored: %v", err)
	}
	var totalTakeovers int64
	for pe := 0; pe < n; pe++ {
		if pe == 1 {
			continue // the victim
		}
		if stats[pe] != caf.StatOK {
			t.Errorf("image %d: AcquireStat = %v after holder death, want STAT_OK (lock must stay live)", pe+1, stats[pe])
		}
		totalTakeovers += takeovers[pe]
	}
	if totalTakeovers != 1 {
		t.Errorf("lock takeovers = %d, want exactly 1 (one first live successor)", totalTakeovers)
	}
	if finalCounter != 1+3 {
		t.Errorf("counter = %d, want 4 (victim's increment plus one per survivor)", finalCounter)
	}
}

// TestLockHomeFailure pins the other terminal case: the image hosting the
// lock word fails, so the lock itself is gone — a holder's release and any
// later acquire must both report StatFailedImage instead of hanging.
func TestLockHomeFailure(t *testing.T) {
	const n = 3
	opts := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
	opts.FaultTolerant = true
	var releaseStat, acquireStat caf.Stat
	err := caf.Run(n, opts, func(img *caf.Image) {
		me := img.ThisImage()
		lck := caf.NewLock(img)
		gate := caf.Allocate[int64](img, 1)
		img.SyncAll()
		switch me {
		case 2:
			// Hold image 3's lock across image 3's death.
			if s := lck.AcquireStat(3); s != caf.StatOK {
				panic(s)
			}
			gate.PutElem(3, 1, 0) // let the home die
			gate.WaitLocal(pgas.CmpEQ, 2, 0)
			releaseStat = lck.ReleaseStat(3)
			gate.PutElem(1, 1, 0)
		case 3:
			gate.WaitLocal(pgas.CmpEQ, 1, 0)
			img.FailImage()
		case 1:
			// Wait until 3 is gone, unblock 2's release, then try the lock.
			for img.ImageStatus(3) != caf.StatFailedImage {
				img.Clock().Advance(100)
				gate.GetElem(1, 0) // benign fault-aware op to keep polling
			}
			gate.PutElem(2, 2, 0)
			gate.WaitLocal(pgas.CmpEQ, 1, 0)
			acquireStat = lck.AcquireStat(3)
		}
		img.SyncAllStat()
	})
	if err != nil {
		t.Fatalf("run errored: %v", err)
	}
	if releaseStat != caf.StatFailedImage {
		t.Errorf("ReleaseStat on dead home = %v, want STAT_FAILED_IMAGE", releaseStat)
	}
	if acquireStat != caf.StatFailedImage {
		t.Errorf("AcquireStat on dead home = %v, want STAT_FAILED_IMAGE", acquireStat)
	}
}

// --- DHT workload ---

// chaosDHTCases are the seeds TestChaosDHT pins.
var chaosDHTCases = []struct {
	seed  uint64
	n     int
	kills int
}{{21, 5, 1}, {22, 6, 2}}

// chaosDHT runs randomized DHT updates under the kills of one seed. Updates
// whose owning image died report StatFailedImage and are skipped; everything
// else must succeed, and nobody may hang. The first violation comes back as
// the error.
func chaosDHT(seed uint64, n, kills int) error {
	const iters = 40
	plan := fabric.RandomPlan(seed, n, kills, 5000, 150000)
	victims := map[int]bool{}
	for _, pe := range plan.Victims() {
		victims[pe] = true
	}
	done := make([]int, n)
	failed := make([]int, n)
	finalStats := make([]caf.Stat, n)
	err := caf.Run(n, chaosOpts(plan), func(img *caf.Image) {
		me := img.ThisImage()
		tbl := dht.New(img, 64)
		rng := uint64(0xABCD*me + 7)
		for i := 0; i < iters; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			stat, uerr := tbl.UpdateStat(rng%uint64(n*16), 1)
			if uerr != nil {
				panic(uerr)
			}
			switch stat {
			case caf.StatOK:
				done[me-1]++
			case caf.StatFailedImage:
				failed[me-1]++
			default:
				panic(stat)
			}
		}
		finalStats[me-1] = img.SyncAllStat()
	})
	if err != nil {
		return fmt.Errorf("seed %d: chaos DHT run errored (survivor hang or panic): %v", seed, err)
	}
	for pe := 0; pe < n; pe++ {
		if victims[pe] {
			continue
		}
		if done[pe]+failed[pe] != iters {
			return fmt.Errorf("seed %d: survivor image %d finished %d/%d updates", seed, pe+1, done[pe]+failed[pe], iters)
		}
		if finalStats[pe] != caf.StatFailedImage {
			return fmt.Errorf("seed %d: survivor image %d final sync stat = %v, want STAT_FAILED_IMAGE", seed, pe+1, finalStats[pe])
		}
	}
	return nil
}

func TestChaosDHT(t *testing.T) {
	for _, tc := range chaosDHTCases {
		if err := chaosDHT(tc.seed, tc.n, tc.kills); err != nil {
			t.Error(err)
		}
	}
}

// TestChaosDHTLoopAlwaysReturns loops the pinned seeds a few hundred times.
// These seeds used to fail about one run in twenty and, worse, hang some of
// the failures until the test timeout, for two reasons this test now guards:
// a fault-aware atomic that raced the target's failure could report success
// without storing (pgas.RMW64Stat), so a contender believed itself enqueued
// on a dead image's lock and its release waited for a successor that never
// was; and a killed image ran its deferred unlock while unwinding, blocking
// for good on a link its frozen partition could no longer receive. Each run
// must come back — promptly, and clean.
func TestChaosDHTLoopAlwaysReturns(t *testing.T) {
	loops := 200
	if testing.Short() {
		loops = 20
	}
	for _, tc := range chaosDHTCases {
		for i := 0; i < loops; i++ {
			returned := make(chan error, 1)
			go func() { returned <- chaosDHT(tc.seed, tc.n, tc.kills) }()
			select {
			case err := <-returned:
				if err != nil {
					t.Fatalf("run %d of %d: %v", i, loops, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("seed %d, run %d of %d: chaos DHT run did not return", tc.seed, i, loops)
			}
		}
	}
}

// --- Himeno workload ---

// TestChaosHimeno kills an image mid-solve: survivors abandon the iteration
// loop via SyncAllStat, report STAT_FAILED_IMAGE, and the cut-short run
// replays identically from the same seed (all failure observation goes
// through barriers, which order deterministically in virtual time).
func TestChaosHimeno(t *testing.T) {
	prm := himeno.Params{NX: 16, NY: 16, NZ: 8, Iters: 8, FaultAware: true}
	const images = 4

	// Probe the fault-free duration to place kills mid-solve.
	base, err := himeno.Run(chaosOpts(nil), images, prm)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stat != caf.StatOK || base.Iters != prm.Iters {
		t.Fatalf("fault-free FaultAware run: stat=%v iters=%d, want STAT_OK and %d", base.Stat, base.Iters, prm.Iters)
	}
	durNs := base.TimeMs * 1e6

	for _, seed := range []uint64{31, 32} {
		plan := fabric.RandomPlan(seed, images, 1, 0.3*durNs, 0.7*durNs)
		r1, err := himeno.Run(chaosOpts(plan), images, prm)
		if err != nil {
			t.Fatalf("seed %d: chaos himeno run errored (survivor hang or panic): %v", seed, err)
		}
		if r1.Stat != caf.StatFailedImage {
			t.Errorf("seed %d: stat = %v, want STAT_FAILED_IMAGE", seed, r1.Stat)
		}
		if r1.Iters >= prm.Iters {
			t.Errorf("seed %d: completed %d iterations despite a mid-solve kill", seed, r1.Iters)
		}
		r2, err := himeno.Run(chaosOpts(plan), images, prm)
		if err != nil {
			t.Fatalf("seed %d: replay errored: %v", seed, err)
		}
		if r1.TimeMs != r2.TimeMs || r1.Gosa != r2.Gosa || r1.Stat != r2.Stat || r1.Iters != r2.Iters {
			t.Errorf("seed %d: replay diverged: (%v,%v,%v,%d) vs (%v,%v,%v,%d)",
				seed, r1.TimeMs, r1.Gosa, r1.Stat, r1.Iters, r2.TimeMs, r2.Gosa, r2.Stat, r2.Iters)
		}
	}
}

// TestFailedImagesIntrinsics checks failed_images()/image_status() through a
// scripted FAIL IMAGE.
func TestFailedImagesIntrinsics(t *testing.T) {
	const n = 3
	opts := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
	opts.FaultTolerant = true
	var listed []int
	var status caf.Stat
	err := caf.Run(n, opts, func(img *caf.Image) {
		me := img.ThisImage()
		img.SyncAll()
		if me == 3 {
			img.FailImage()
		}
		if img.SyncAllStat() != caf.StatFailedImage {
			panic("expected failed-image stat")
		}
		if me == 1 {
			listed = img.FailedImages()
			status = img.ImageStatus(3)
		}
	})
	if err != nil {
		t.Fatalf("run errored: %v", err)
	}
	if len(listed) != 1 || listed[0] != 3 {
		t.Errorf("FailedImages() = %v, want [3]", listed)
	}
	if status != caf.StatFailedImage {
		t.Errorf("ImageStatus(3) = %v, want STAT_FAILED_IMAGE", status)
	}
}

// --- nonblocking-RMA workload ---

const chaosNBIRounds = 12

// chaosNBIRun loops PutAsync-to-ring-neighbour + compute + SyncMemoryStat +
// SyncAllStat. Kill times land mid-run, so some images die with nonblocking
// transfers outstanding against them; survivors must observe the failure as
// STAT_FAILED_IMAGE at the completion point — never hang, never panic.
// Fault points are op boundaries, so observations are barrier-generation
// deterministic and the whole run replays bit-identically from its seed.
func chaosNBIRun(t *testing.T, seed uint64, n, kills int) ([]float64, [][]caf.Stat, [][]caf.Stat) {
	t.Helper()
	plan := fabric.RandomPlan(seed, n, kills, 2000, 60000)
	times := make([]float64, n)
	memStats := make([][]caf.Stat, n)
	allStats := make([][]caf.Stat, n)
	for i := range memStats {
		memStats[i] = make([]caf.Stat, chaosNBIRounds)
		allStats[i] = make([]caf.Stat, chaosNBIRounds)
	}
	err := caf.Run(n, chaosOpts(plan), func(img *caf.Image) {
		me := img.ThisImage()
		np := img.NumImages()
		// Allocate is itself collective; no extra (non-STAT) sync all here —
		// every later rendezvous must be STAT-bearing to survive deaths.
		x := caf.Allocate[int64](img, 64)
		vals := make([]int64, 64)
		for r := 0; r < chaosNBIRounds; r++ {
			target := me%np + 1
			for i := range vals {
				vals[i] = int64(me*100000 + r*64 + i)
			}
			x.PutAsync(target, caf.All(64), vals)
			img.Clock().Advance(7000) // overlapped compute phase
			memStats[me-1][r] = img.SyncMemoryStat()
			allStats[me-1][r] = img.SyncAllStat()
		}
		times[me-1] = img.Clock().Now()
	})
	if err != nil {
		t.Fatalf("seed %d: chaos NBI run errored (survivor hang or panic): %v", seed, err)
	}
	return times, memStats, allStats
}

func TestChaosNBIPutAsync(t *testing.T) {
	for _, tc := range []struct {
		seed  uint64
		n     int
		kills int
	}{{7, 6, 1}, {11, 6, 2}, {13, 8, 3}} {
		plan := fabric.RandomPlan(tc.seed, tc.n, tc.kills, 2000, 60000)
		victims := map[int]bool{}
		for _, pe := range plan.Victims() {
			victims[pe] = true
		}
		times, memStats, allStats := chaosNBIRun(t, tc.seed, tc.n, tc.kills)

		sawNBIFailure := false
		for pe := 0; pe < tc.n; pe++ {
			targetVictim := victims[pe%tc.n+1-1] // my ring neighbour's 0-based PE is me%np
			seenMemBad := false
			for r := 0; r < chaosNBIRounds; r++ {
				if !isLegalStat(memStats[pe][r]) || !isLegalStat(allStats[pe][r]) {
					t.Errorf("seed %d: image %d round %d: illegal stat mem=%v all=%v",
						tc.seed, pe+1, r, memStats[pe][r], allStats[pe][r])
				}
				if memStats[pe][r] == caf.StatFailedImage {
					sawNBIFailure = true
					seenMemBad = true
				} else if seenMemBad && !victims[pe] {
					// Once my NBI target is a corpse it stays one: every later
					// completion must keep reporting the failure.
					t.Errorf("seed %d: image %d round %d: SyncMemoryStat recovered to %v after target death",
						tc.seed, pe+1, r, memStats[pe][r])
				}
			}
			if !victims[pe] && times[pe] == 0 {
				t.Errorf("seed %d: survivor image %d did not finish", tc.seed, pe+1)
			}
			if !victims[pe] && targetVictim && memStats[pe][chaosNBIRounds-1] != caf.StatFailedImage {
				t.Errorf("seed %d: survivor image %d puts into dead neighbour but final SyncMemoryStat = %v",
					tc.seed, pe+1, memStats[pe][chaosNBIRounds-1])
			}
		}
		if !sawNBIFailure {
			t.Errorf("seed %d: no NBI-target failure was ever observed at SyncMemoryStat", tc.seed)
		}

		// Bit-identical replay from the same seed.
		times2, memStats2, allStats2 := chaosNBIRun(t, tc.seed, tc.n, tc.kills)
		for pe := 0; pe < tc.n; pe++ {
			if times[pe] != times2[pe] {
				t.Errorf("seed %d: image %d time %v != replay %v", tc.seed, pe+1, times[pe], times2[pe])
			}
			for r := 0; r < chaosNBIRounds; r++ {
				if memStats[pe][r] != memStats2[pe][r] || allStats[pe][r] != allStats2[pe][r] {
					t.Errorf("seed %d: image %d round %d stats (%v,%v) != replay (%v,%v)", tc.seed, pe+1, r,
						memStats[pe][r], allStats[pe][r], memStats2[pe][r], allStats2[pe][r])
				}
			}
		}
	}
}

// TestChaosRejectsNonSHMEMTransports pins the chaos suite's transport
// boundary: fault plans (and FaultTolerant alone) are an OpenSHMEM-transport
// feature — the STAT plumbing lives in the shmem mapping — so a job that
// pairs one with the GASNet or MPI-3 backend must be rejected up front with
// the documented error, not die somewhere inside the run.
func TestChaosRejectsNonSHMEMTransports(t *testing.T) {
	plan := fabric.RandomPlan(3, 4, 1, 2000, 60000)
	for _, tc := range []struct {
		name string
		tr   caf.TransportKind
	}{
		{"gasnet", caf.TransportGASNet},
		{"mpi3", caf.TransportMPI3},
	} {
		for _, mode := range []string{"faultplan", "faulttolerant"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				opts := caf.Options{Machine: fabric.Stampede(), Transport: tc.tr}
				if tc.tr == caf.TransportGASNet {
					opts.Profile = fabric.ProfGASNetIBV
				} else {
					opts.Profile = fabric.ProfMV2XMPI3
				}
				if mode == "faultplan" {
					opts.FaultPlan = plan
				} else {
					opts.FaultTolerant = true
				}
				err := caf.Run(4, opts, func(img *caf.Image) {
					t.Error("image body ran despite the rejected transport/fault combination")
				})
				if err == nil || !strings.Contains(err.Error(), "require the OpenSHMEM transport") {
					t.Fatalf("want transport rejection error, got %v", err)
				}
			})
		}
	}
}
