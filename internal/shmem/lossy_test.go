package shmem

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// TestLossFreePlanBitIdentical: a non-nil plan with no loss rules must leave
// every virtual time bit-identical to a nil plan, for every put/get shape
// (shapesProgram), blocking, nonblocking and context-scoped.
func TestLossFreePlanBitIdentical(t *testing.T) {
	base, _ := runShapes(t, nil, pgas.EngineGoroutine, true)
	withPlan, links := runShapes(t, &fabric.FaultPlan{Seed: 1}, pgas.EngineGoroutine, true)
	if base != withPlan {
		t.Fatalf("loss-free plan perturbed virtual time:\n%v\n!=\n%v", withPlan, base)
	}
	if len(links) != 0 {
		t.Fatalf("loss-free plan engaged the reliability protocol: %v", links)
	}
}

// TestLossyPutDelaysQuiet: a lossy link's retry traffic must push the
// sender's Quiet horizon past the loss-free completion time, and the payload
// must still arrive exactly once.
func TestLossyPutDelaysQuiet(t *testing.T) {
	cfg := stampedeCfg()
	cfg.FaultPlan = &fabric.FaultPlan{
		Seed:   42,
		Losses: []fabric.LinkLoss{{Src: 0, Dst: 1, DropProb: 0.9, ToNs: 1e6}},
		Retry:  fabric.RetryPolicy{RetryBaseNs: 8000, RetryCapNs: 64000, MaxRetries: 20},
	}
	var lossyT, baseT float64
	for _, lossy := range []bool{false, true} {
		c := stampedeCfg()
		if lossy {
			c = cfg
		}
		err := Run(c, 2, func(pe *PE) {
			data := pe.Malloc(256)
			pe.Barrier()
			if pe.MyPE() == 0 {
				buf := make([]byte, 128)
				for i := range buf {
					buf[i] = 0xab
				}
				for k := 0; k < 8; k++ {
					pe.PutMem(1, data, int64(k*16), buf[:16])
				}
				pe.Quiet()
				if lossy {
					lossyT = pe.Clock().Now()
				} else {
					baseT = pe.Clock().Now()
				}
			}
			pe.Barrier()
			if pe.MyPE() == 1 {
				got := make([]byte, 16)
				pe.world.pw.Read(1, data.Off, got)
				if got[0] != 0xab {
					t.Errorf("payload did not land: %v", got[:4])
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if lossyT <= baseT {
		t.Fatalf("retry traffic should delay Quiet: lossy %v <= loss-free %v", lossyT, baseT)
	}
}

// TestLossyReplayIdentical: two runs with the same plan produce float64-equal
// clocks and identical forensic counters.
func TestLossyReplayIdentical(t *testing.T) {
	plan := &fabric.FaultPlan{
		Seed:   0xcafe,
		Losses: []fabric.LinkLoss{{Src: -1, Dst: -1, DropProb: 0.3, DelayMaxNs: 2000, DupProb: 0.1, ToNs: 5e5}},
	}
	run := func() ([]float64, []pgas.LinkReport) {
		cfg := stampedeCfg()
		cfg.FaultPlan = plan
		times := make([]float64, 4)
		var reps []pgas.LinkReport
		w, err := NewWorld(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		err = w.PgasWorld().Run(func(p *pgas.PE) {
			pe := w.Attach(p)
			data := pe.Malloc(4096)
			pe.Barrier()
			me := pe.MyPE()
			nxt := (me + 1) % pe.NumPEs()
			buf := make([]byte, 512)
			for i := range buf {
				buf[i] = byte(me + 1)
			}
			for k := 0; k < 16; k++ {
				pe.PutMemNBI(nxt, data, int64(k*32), buf[k*32:(k+1)*32])
			}
			if err := pe.QuietStat(); err != nil {
				t.Errorf("PE %d: unexpected fault: %v", me, err)
			}
			pe.Barrier()
			times[me] = pe.Clock().Now()
		})
		if err != nil {
			t.Fatal(err)
		}
		reps = w.PgasWorld().LinkReports()
		return times, reps
	}
	t1, r1 := run()
	t2, r2 := run()
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("PE %d: replay diverged: %v != %v", i, t1[i], t2[i])
		}
	}
	if len(r1) != len(r2) {
		t.Fatalf("forensic reports diverged: %v vs %v", r1, r2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("link %d forensics diverged:\n%v\n%v", i, r1[i], r2[i])
		}
	}
	// The plan actually exercised the protocol: some retries happened.
	total := uint64(0)
	for _, r := range r1 {
		total += r.Retries
	}
	if total == 0 {
		t.Error("30% drop plan produced zero retries — loss path not engaged")
	}
}

// TestRetryExhaustionQuietStat: a severed link surfaces as an ImageFault at
// QuietStat naming the unreachable destination; the run completes without
// hanging.
func TestRetryExhaustionQuietStat(t *testing.T) {
	cfg := stampedeCfg()
	cfg.FaultPlan = &fabric.FaultPlan{
		Seed:   5,
		Losses: []fabric.LinkLoss{{Src: 0, Dst: 1, DropProb: 1}},
		Retry:  fabric.RetryPolicy{RetryBaseNs: 1000, RetryCapNs: 8000, MaxRetries: 3},
	}
	err := Run(cfg, 2, func(pe *PE) {
		data := pe.Malloc(64)
		pe.Barrier()
		if pe.MyPE() == 0 {
			pe.PutMemNBI(1, data, 0, []byte{1, 2, 3, 4})
			err := pe.QuietStat()
			var fe *pgas.ImageFault
			if !errors.As(err, &fe) || len(fe.Failed) != 1 || fe.Failed[0] != 1 {
				t.Errorf("QuietStat = %v, want ImageFault{Failed:[1]}", err)
			}
			// Sticky: a later stat-bearing completion still reports it.
			if err := pe.QuietTargetStat(1); err == nil {
				t.Error("QuietTargetStat after exhaustion should report the dead link")
			}
			// After giving up a link, legacy collectives would escalate —
			// fault-aware code switches to the stat forms.
			if err := pe.BarrierStat(); err == nil {
				t.Error("BarrierStat should fold the dead link into its fault")
			}
		} else {
			pe.Barrier()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRetryExhaustionLegacyPanics: the legacy Quiet error-terminates the
// world when a destination was given up (no hang, error reported).
func TestRetryExhaustionLegacyPanics(t *testing.T) {
	cfg := stampedeCfg()
	cfg.FaultPlan = &fabric.FaultPlan{
		Seed:   6,
		Losses: []fabric.LinkLoss{{Src: 0, Dst: 1, DropProb: 1}},
		Retry:  fabric.RetryPolicy{RetryBaseNs: 1000, RetryCapNs: 8000, MaxRetries: 3},
	}
	err := Run(cfg, 2, func(pe *PE) {
		data := pe.Malloc(64)
		pe.Barrier()
		if pe.MyPE() == 0 {
			pe.PutMem(1, data, 0, []byte{9})
			pe.Quiet() // escalates: destination unreachable
		}
		pe.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("legacy Quiet should error-terminate with an unreachable diagnostic, got: %v", err)
	}
}

// TestRetryExhaustionCtxQuietTarget: a created context's QuietTarget is the
// same legacy escalation point as the PE's, scoped to its destination — a link
// given up under the context's nonblocking put error-terminates at
// QuietTarget(that destination) and not at QuietTarget(another).
func TestRetryExhaustionCtxQuietTarget(t *testing.T) {
	cfg := stampedeCfg()
	cfg.FaultPlan = &fabric.FaultPlan{
		Seed:   8,
		Losses: []fabric.LinkLoss{{Src: 0, Dst: 1, DropProb: 1}},
		Retry:  fabric.RetryPolicy{RetryBaseNs: 1000, RetryCapNs: 8000, MaxRetries: 3},
	}
	var passedOther, passedDead atomic.Bool
	err := Run(cfg, 3, func(pe *PE) {
		data := pe.Malloc(64)
		pe.Barrier()
		if pe.MyPE() == 0 {
			ctx := pe.CtxCreate()
			ctx.PutMemNBI(1, data, 0, []byte{1, 2, 3, 4})
			ctx.PutMemNBI(2, data, 0, []byte{5, 6, 7, 8})
			ctx.QuietTarget(2) // the link to PE 2 is fine
			passedOther.Store(true)
			ctx.QuietTarget(1) // escalates: destination unreachable
			passedDead.Store(true)
		}
		pe.Barrier()
	})
	if !passedOther.Load() {
		t.Errorf("Ctx.QuietTarget(2) escalated a link given up toward PE 1: %v", err)
	}
	if passedDead.Load() || err == nil || !strings.Contains(err.Error(), "destination PE 1 unreachable") {
		t.Fatalf("Ctx.QuietTarget(1) should error-terminate with an unreachable diagnostic, got: %v", err)
	}
}

// TestWaitUntilStatUnreachable: a consumer blocked on a signal whose
// producer's link died returns the fault instead of hanging.
func TestWaitUntilStatUnreachable(t *testing.T) {
	cfg := stampedeCfg()
	cfg.FaultPlan = &fabric.FaultPlan{
		Seed:   7,
		Losses: []fabric.LinkLoss{{Src: 0, Dst: 1, DropProb: 1}},
		Retry:  fabric.RetryPolicy{RetryBaseNs: 1000, RetryCapNs: 8000, MaxRetries: 3},
	}
	err := Run(cfg, 2, func(pe *PE) {
		data := pe.Malloc(64)
		sig := pe.Malloc(8)
		pe.Barrier()
		if pe.MyPE() == 0 {
			// The signal can never arrive: every packet to PE 1 drops.
			pe.PutSignal(1, data, 0, []byte{1}, sig, 0, 1)
			if err := pe.QuietStat(); err == nil {
				t.Error("producer's QuietStat should report the dead link")
			}
		} else {
			_, err := pe.WaitUntilStat(sig, 0, CmpNE, 0, 0)
			var fe *pgas.ImageFault
			if !errors.As(err, &fe) || len(fe.Failed) != 1 || fe.Failed[0] != 0 {
				t.Errorf("WaitUntilStat = %v, want ImageFault{Failed:[0]}", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLossyGetErrorTerminates: blocking gets have no deferred completion
// point, so exhaustion error-terminates at the op.
func TestLossyGetErrorTerminates(t *testing.T) {
	cfg := stampedeCfg()
	cfg.FaultPlan = &fabric.FaultPlan{
		Seed:   8,
		Losses: []fabric.LinkLoss{{Src: 0, Dst: 1, DropProb: 1}},
		Retry:  fabric.RetryPolicy{RetryBaseNs: 1000, RetryCapNs: 8000, MaxRetries: 3},
	}
	err := Run(cfg, 2, func(pe *PE) {
		data := pe.Malloc(64)
		pe.Barrier()
		if pe.MyPE() == 0 {
			dst := make([]byte, 8)
			pe.GetMem(1, data, 0, dst)
		}
		pe.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("lossy get exhaustion should error-terminate, got: %v", err)
	}
}

// TestLossyDupSuppression: a duplication-heavy link still delivers each
// payload exactly once (the receiver window suppresses the copies), and the
// suppressed duplicates are counted.
func TestLossyDupSuppression(t *testing.T) {
	cfg := stampedeCfg()
	cfg.FaultPlan = &fabric.FaultPlan{
		Seed:   9,
		Losses: []fabric.LinkLoss{{Src: 0, Dst: 1, DupProb: 0.9, ToNs: 1e6}},
	}
	w, err := NewWorld(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.PgasWorld().Run(func(p *pgas.PE) {
		pe := w.Attach(p)
		ctr := pe.Malloc(8)
		pe.Barrier()
		if pe.MyPE() == 0 {
			for k := 0; k < 32; k++ {
				pe.FetchAdd(1, ctr, 0, 0) // AMOs stay native-reliable
				pe.PutMem(1, ctr, 0, []byte{byte(k)})
			}
			pe.Quiet()
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	reps := w.PgasWorld().LinkReports()
	if len(reps) == 0 {
		t.Fatal("no link reports for reliable traffic")
	}
	if reps[0].Msgs != 32 || reps[0].DupsSuppressed == 0 {
		t.Fatalf("want 32 msgs with suppressed dups, got %+v", reps[0])
	}
}
