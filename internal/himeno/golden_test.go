package himeno

import (
	"runtime"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
)

// Goldens captured on the PR 4 tree, before contexts and signal-driven
// waiting existed. The blocking schedule and the barrier-paced overlap
// schedule (now Params.OverlapBarrier) never touch the new per-target
// completion streams beyond the shared NIC pipe they already used, so their
// modelled times must stay bit-identical — float64 equality, no tolerance.
// A drift here means the contexts refactor changed the blocking-path cost
// model, which the issue forbids.
var goldenHimeno = []struct {
	name          string
	opts          caf.Options
	blockingMs    float64
	overlapBarrMs float64
}{
	{"stampede/mv2x", stampedeOpts(), 0.12599072727272725, 0.11405945454545442},
	{"xc30/cray", naiveStrided(caf.UHCAFOverCraySHMEM(fabric.CrayXC30())), 0.11540400000000002, 0.10504199999999994},
	{"titan/cray", naiveStrided(caf.UHCAFOverCraySHMEM(fabric.Titan())), 0.13988400000000026, 0.12952199999999991},
}

// All three schedules converge to the same residual on this grid; the value
// predates this PR.
const goldenHimenoGosa = 0.055324603606416084

func TestHimenoVirtualTimeGoldens(t *testing.T) {
	prm := Params{NX: 16, NY: 64, NZ: 12, Iters: 3}
	for _, g := range goldenHimeno {
		blk, err := Run(g.opts, 8, prm)
		if err != nil {
			t.Fatalf("%s blocking: %v", g.name, err)
		}
		if blk.TimeMs != g.blockingMs {
			t.Errorf("%s: blocking TimeMs = %v, want pre-context golden %v", g.name, blk.TimeMs, g.blockingMs)
		}
		if blk.Gosa != goldenHimenoGosa {
			t.Errorf("%s: blocking Gosa = %v, want %v", g.name, blk.Gosa, goldenHimenoGosa)
		}

		op := prm
		op.Overlap = true
		op.OverlapBarrier = true
		ob, err := Run(g.opts, 8, op)
		if err != nil {
			t.Fatalf("%s overlap-barrier: %v", g.name, err)
		}
		if ob.TimeMs != g.overlapBarrMs {
			t.Errorf("%s: OverlapBarrier TimeMs = %v, want PR 4 golden %v", g.name, ob.TimeMs, g.overlapBarrMs)
		}
		if ob.Gosa != goldenHimenoGosa {
			t.Errorf("%s: OverlapBarrier Gosa = %v, want %v", g.name, ob.Gosa, goldenHimenoGosa)
		}
	}
}

// TestDeterminismHimenoGoldens re-runs the pinned-golden table as a
// determinism differential: virtual time is a pure function of (program,
// machine), so every GOMAXPROCS — one P, two, an odd count, one per image —
// must reproduce, twice over, the exact same float64 TimeMs and residual.
// check.sh repeats every TestDeterminism test at -cpu 1,2,8; the barrier's
// shard layouts are varied below pgas (TestDeterminismAcrossShardLayouts).
func TestDeterminismHimenoGoldens(t *testing.T) {
	prm := Params{NX: 16, NY: 64, NZ: 12, Iters: 3}
	for _, procs := range []int{1, 2, 3, 8} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for run := 0; run < 2; run++ {
			for _, g := range goldenHimeno {
				blk, err := Run(g.opts, 8, prm)
				if err != nil {
					t.Fatalf("%s blocking (procs=%d): %v", g.name, procs, err)
				}
				if blk.TimeMs != g.blockingMs || blk.Gosa != goldenHimenoGosa {
					t.Errorf("%s: procs=%d run %d blocking = (%v, %v), want golden (%v, %v)",
						g.name, procs, run, blk.TimeMs, blk.Gosa, g.blockingMs, goldenHimenoGosa)
				}

				op := prm
				op.Overlap = true
				op.OverlapBarrier = true
				ob, err := Run(g.opts, 8, op)
				if err != nil {
					t.Fatalf("%s overlap-barrier (procs=%d): %v", g.name, procs, err)
				}
				if ob.TimeMs != g.overlapBarrMs || ob.Gosa != goldenHimenoGosa {
					t.Errorf("%s: procs=%d run %d OverlapBarrier = (%v, %v), want golden (%v, %v)",
						g.name, procs, run, ob.TimeMs, ob.Gosa, g.overlapBarrMs, goldenHimenoGosa)
				}
			}
		}
	}
}

// TestHimeno4kImages is a scale smoke: one Jacobi iteration with 4096 images,
// a goroutine each. Per-plane local state keeps the footprint small; the
// point is that 4k images sleep, wake and clear barriers without a false
// deadlock verdict. It asserts convergence bookkeeping only — the
// bit-identical goldens above already pin the cost model.
func TestHimeno4kImages(t *testing.T) {
	if testing.Short() {
		t.Skip("4k-image scale smoke skipped in -short mode")
	}
	prm := Params{NX: 8, NY: 4096, NZ: 8, Iters: 1}
	res, err := Run(stampedeOpts(), 4096, prm)
	if err != nil {
		t.Fatalf("4k-image run: %v", err)
	}
	if res.Iters != 1 || res.Gosa <= 0 {
		t.Fatalf("4k-image run: iters=%d gosa=%v, want 1 iteration with a positive residual", res.Iters, res.Gosa)
	}
}
