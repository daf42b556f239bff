package fabric

import (
	"math/rand"
	"testing"
)

// Property: for any issue schedule, per-target streams are an observation-only
// refinement of the shared queue. Every op's completion timestamp is identical
// on both (streams never complete an op earlier than the shared queue — the
// NIC pipe is the same), the full drain matches NBIQueue.Drain, and
// DrainTarget(t) is exactly the max completion of t's ops alone.
func TestStreamsMatchSharedQueueRandom(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var nic NBINic
		s := NewNBIStreams(&nic)
		var q NBIQueue
		perTarget := map[int]float64{}
		now := 0.0
		nops := 50 + rng.Intn(100)
		for i := 0; i < nops; i++ {
			now += rng.Float64() * 500 // compute between issues
			target := rng.Intn(8)
			transfer := rng.Float64() * 300
			latency := rng.Float64() * 100
			ds := s.Issue(target, now, transfer, latency)
			dq := q.Issue(now, transfer, latency)
			if ds != dq {
				t.Fatalf("seed %d op %d: stream completion %g != shared-queue completion %g", seed, i, ds, dq)
			}
			if ds > perTarget[target] {
				perTarget[target] = ds
			}
		}
		// Drain half the targets individually: each must return exactly its
		// own max completion, which is <= the global horizon.
		global := q.Drain()
		for target := 0; target < 4; target++ {
			got := s.DrainTarget(target)
			if got != perTarget[target] {
				t.Errorf("seed %d: DrainTarget(%d) = %g, want that target's max completion %g", seed, target, got, perTarget[target])
			}
			if got > global {
				t.Errorf("seed %d: DrainTarget(%d) = %g beyond the global horizon %g", seed, target, got, global)
			}
			if again := s.DrainTarget(target); again != 0 {
				t.Errorf("seed %d: target %d still outstanding after its drain (%g)", seed, target, again)
			}
		}
		// The rest drain together; the max over all targets is the shared
		// queue's horizon.
		rest := s.Drain()
		max := 0.0
		for target := 4; target < 8; target++ {
			if perTarget[target] > max {
				max = perTarget[target]
			}
		}
		if rest != max {
			t.Errorf("seed %d: residual Drain() = %g, want %g", seed, rest, max)
		}
		if len(s.recs) != 0 {
			t.Errorf("seed %d: %d streams outstanding after full drain", seed, len(s.recs))
		}
	}
}

// Property: two stream sets sharing one NIC, as two OpenSHMEM contexts of a PE
// would. A set's Drain waits for the max completion of that set's ops only —
// never for the other set's — while both sets' transfers still serialise on
// the shared pipe (so completions equal the single-queue model op for op).
func TestStreamsContextQuietIsOwnMaxOnly(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var nic NBINic
		ctxA := NewNBIStreams(&nic)
		ctxB := NewNBIStreams(&nic)
		var shared NBIQueue
		maxA, maxB := 0.0, 0.0
		now := 0.0
		for i := 0; i < 80; i++ {
			now += rng.Float64() * 200
			target := rng.Intn(5)
			transfer := rng.Float64() * 400
			latency := rng.Float64() * 50
			var done float64
			if rng.Intn(2) == 0 {
				done = ctxA.Issue(target, now, transfer, latency)
				if done > maxA {
					maxA = done
				}
			} else {
				done = ctxB.Issue(target, now, transfer, latency)
				if done > maxB {
					maxB = done
				}
			}
			if ref := shared.Issue(now, transfer, latency); done != ref {
				t.Fatalf("seed %d op %d: completion %g != single-queue %g (NIC sharing broken)", seed, i, done, ref)
			}
		}
		if got := ctxA.Drain(); got != maxA {
			t.Errorf("seed %d: ctx A quiet = %g, want its own max %g", seed, got, maxA)
		}
		if got := ctxB.Drain(); got != maxB {
			t.Errorf("seed %d: ctx B quiet = %g, want its own max %g", seed, got, maxB)
		}
	}
}

// Pinned against the PR 4 blocking cost decomposition: an op issued on a
// stream and drained immediately costs at least the blocking schedule —
// inject + transfer + delivery == PutInjectNs + DeliveryNs — for every
// profile, so a stream can never beat blocking without real overlap.
func TestStreamsPinnedToBlockingDecomposition(t *testing.T) {
	for _, p := range testProfiles(t) {
		for _, n := range []int{1, 64, 4096} {
			var nic NBINic
			s := NewNBIStreams(&nic)
			now := p.NBIInjectNs() // clock after posting
			done := s.Issue(3, now, p.NBITransferNs(n, false, 1), p.DeliveryNs(false, 1))
			if got := s.DrainTarget(3); got != done {
				t.Fatalf("%s: immediate DrainTarget = %g, want the op's completion %g", p.Name, got, done)
			}
			blocking := p.PutInjectNs(n, false, 1) + p.DeliveryNs(false, 1)
			if !closeEnough(done, blocking) && done < blocking {
				t.Errorf("%s n=%d: quiet-immediately completion %g < blocking cost %g", p.Name, n, done, blocking)
			}
		}
	}
}

// The residual NIC occupancy after a partial drain still delays later issues:
// draining one target must not hand the pipe back early.
func TestStreamsPartialDrainKeepsPipeBusy(t *testing.T) {
	var nic NBINic
	s := NewNBIStreams(&nic)
	s.Issue(0, 100, 50, 10) // pipe busy until 150, completes 160
	s.Issue(1, 100, 30, 10) // starts 150, pipe busy until 180, completes 190
	if got := s.DrainTarget(0); got != 160 {
		t.Fatalf("DrainTarget(0) = %g, want 160", got)
	}
	// A new op at t=110 must still queue behind target 1's transfer.
	if done := s.Issue(2, 110, 5, 0); done != 185 {
		t.Fatalf("post-partial-drain issue completed at %g, want 185 (pipe busy until 180)", done)
	}
}
