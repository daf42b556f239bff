package shmem

import (
	"strings"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// inFlight is the number of destinations with nonblocking ops in flight.
func (pe *PE) inFlight() (n int) {
	pe.nbi.Targets(func(int) { n++ })
	return n
}

// The acceptance property of the whole nonblocking model: compute issued
// between PutNBI and Quiet is hidden, so total time is max(compute, transfer),
// not the sum. The arithmetic is pinned exactly against the profile.
func TestNBIOverlapHidesCompute(t *testing.T) {
	cfg := stampedeCfg()
	prof := cfg.Machine.MustProfile(cfg.Profile)
	const n = 1 << 16 // a transfer big enough to dominate overheads
	err := Run(cfg, 2, func(pe *PE) {
		sym := pe.Malloc(n)
		pe.Barrier()
		defer pe.Barrier()
		if pe.MyPE() != 0 {
			return
		}
		data := make([]byte, n)
		intra, pairs := pe.intra(1), pe.pairs()
		transfer := prof.NBITransferNs(n, intra, pairs)
		delivery := prof.DeliveryNs(intra, pairs)

		// Case 1: compute much longer than the transfer — fully hidden.
		t0 := pe.Clock().Now()
		pe.PutMemNBI(1, sym, 0, data)
		long := 10 * (transfer + delivery)
		pe.Clock().Advance(long)
		pe.Quiet()
		got := pe.Clock().Now() - t0
		want := 2*prof.OverheadNs + long // issue + compute + quiet overhead; completion already passed
		if !near(got, want) {
			t.Errorf("long-compute overlap: elapsed %g, want %g (transfer fully hidden)", got, want)
		}

		// Case 2: no compute — Quiet waits out the whole transfer.
		t0 = pe.Clock().Now()
		pe.PutMemNBI(1, sym, 0, data)
		pe.Quiet()
		got = pe.Clock().Now() - t0
		want = prof.OverheadNs + transfer + delivery // completion dominates the quiet overhead
		if !near(got, want) {
			t.Errorf("no-compute drain: elapsed %g, want %g", got, want)
		}

		// Case 3: compute shorter than the transfer — total is the max-form,
		// strictly less than the blocking sum.
		short := transfer / 2
		t0 = pe.Clock().Now()
		pe.PutMemNBI(1, sym, 0, data)
		pe.Clock().Advance(short)
		pe.Quiet()
		got = pe.Clock().Now() - t0
		want = prof.OverheadNs + transfer + delivery // completion clock: issue-end + transfer + delivery
		if !near(got, want) {
			t.Errorf("short-compute overlap: elapsed %g, want %g", got, want)
		}
		sum := prof.OverheadNs + transfer + delivery + short
		if got >= sum {
			t.Errorf("overlap did not hide compute: elapsed %g >= blocking sum %g", got, sum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*b+1e-9
}

// A nonblocking put followed immediately by Quiet costs at least the blocking
// put's local cost (the decomposition never undercharges), and the data
// arrives with the same contents.
func TestNBIRoundtripAndFloor(t *testing.T) {
	cfg := crayCfg()
	prof := cfg.Machine.MustProfile(cfg.Profile)
	err := Run(cfg, 2, func(pe *PE) {
		sym := pe.Malloc(8 * 16)
		pe.Barrier()
		if pe.MyPE() == 0 {
			vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
			t0 := pe.Clock().Now()
			pe.PutMemNBI(1, sym, 0, pgas.Bytes(vals))
			pe.Quiet()
			elapsed := pe.Clock().Now() - t0
			intra, pairs := pe.intra(1), pe.pairs()
			floor := prof.PutInjectNs(64, intra, pairs)
			if elapsed < floor {
				t.Errorf("put_nbi+quiet elapsed %g under blocking floor %g", elapsed, floor)
			}
		}
		pe.Barrier()
		if pe.MyPE() == 1 {
			got := make([]int64, 8)
			pe.GetMem(1, sym, 0, pgas.Bytes(got))
			want := []int64{3, 1, 4, 1, 5, 9, 2, 6}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("element %d = %d, want %d", i, got[i], want[i])
				}
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A nonblocking get (shmem_get_nbi, through PE.RMA) fills the destination and
// charges only injection overhead at issue; the round trip lands at Quiet.
func TestGetNBI(t *testing.T) {
	cfg := stampedeCfg()
	prof := cfg.Machine.MustProfile(cfg.Profile)
	err := Run(cfg, 2, func(pe *PE) {
		sym := pe.Malloc(8 * 4)
		for i := 0; i < 4; i++ {
			P(pe, pe.MyPE(), sym, i, int64(100*pe.MyPE()+i))
		}
		pe.Barrier()
		if pe.MyPE() == 0 {
			dst := make([]int64, 4)
			t0 := pe.Clock().Now()
			pe.RMA(&pgas.RMA{Get: true, Target: 1, Local: pgas.Bytes(dst)}, sym, true)
			issueCost := pe.Clock().Now() - t0
			if !near(issueCost, prof.OverheadNs) {
				t.Errorf("get_nbi issue cost %g, want overhead %g", issueCost, prof.OverheadNs)
			}
			if n := pe.inFlight(); n != 1 {
				t.Errorf("destinations in flight = %d, want 1", n)
			}
			pe.Quiet()
			for i := range dst {
				if dst[i] != int64(100+i) {
					t.Errorf("dst[%d] = %d, want %d", i, dst[i], 100+i)
				}
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The vectored and strided nonblocking shapes (PE.RMA) must deliver the bytes
// where their blocking siblings would.
func TestNBIVectoredAndStridedVariants(t *testing.T) {
	err := Run(crayCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(1024)
		pe.Barrier()
		if pe.MyPE() == 0 {
			src := make([]byte, 64)
			for i := range src {
				src[i] = byte(i + 1)
			}
			pe.RMA(&pgas.RMA{Shape: pgas.Runs, Target: 1, Local: src, Offs: []int64{0, 256, 512, 768}, Unit: 16}, sym, true)
			strided := make([]byte, 32)
			for i := range strided {
				strided[i] = byte(200 - i)
			}
			pe.RMA(&pgas.RMA{Shape: pgas.Strided, Target: 1, Off: 64, Local: strided, Unit: 8, Stride: 24}, sym, true)
			// Both ops ride the one destination's stream.
			if n := pe.inFlight(); n != 1 {
				t.Errorf("destinations in flight = %d, want 1", n)
			}
			pe.Quiet()
		}
		pe.Barrier()
		if pe.MyPE() == 1 {
			dst := make([]byte, 16)
			for run, off := range []int64{0, 256, 512, 768} {
				pe.GetMem(1, sym, off, dst)
				for i := range dst {
					if dst[i] != byte(run*16+i+1) {
						t.Fatalf("run %d byte %d = %d, want %d", run, i, dst[i], run*16+i+1)
					}
				}
			}
			got := make([]byte, 32)
			pe.RMA(&pgas.RMA{Get: true, Shape: pgas.Strided, Target: 1, Off: 64, Local: got, Unit: 8, Stride: 24}, sym, true)
			pe.Quiet()
			for i := range got {
				if got[i] != byte(200-i) {
					t.Fatalf("strided byte %d = %d, want %d", i, got[i], 200-i)
				}
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The sanitizer's NBI source-buffer contract: modifying the source of an
// in-flight put before Quiet is reported; leaving it alone is clean.
func TestSanitizerCatchesNBISourceReuse(t *testing.T) {
	cfg := stampedeCfg()
	cfg.Sanitize = true
	err := Run(cfg, 2, func(pe *PE) {
		sym := pe.Malloc(64)
		pe.Barrier()
		if pe.MyPE() == 0 {
			buf := []byte{1, 2, 3, 4}
			pe.PutMemNBI(1, sym, 0, buf)
			buf[0] = 99 // reuse before Quiet: the violation
			pe.Quiet()
		}
		pe.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "nbi-src-reuse") {
		t.Fatalf("want nbi-src-reuse violation, got %v", err)
	}
}

// A typed source is the same contract: the put streams vals' own bytes, and
// those are what the sanitizer compares at Quiet with its snapshot.
func TestSanitizerCatchesTypedNBISourceReuse(t *testing.T) {
	cfg := stampedeCfg()
	cfg.Sanitize = true
	err := Run(cfg, 2, func(pe *PE) {
		sym := pe.Malloc(64)
		pe.Barrier()
		if pe.MyPE() == 0 {
			vals := []int64{7, 8}
			pe.PutMemNBI(1, sym, 0, pgas.Bytes(vals))
			vals[1] = -1 // the typed buffer's own bytes change
			pe.Quiet()
		}
		pe.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "nbi-src-reuse") {
		t.Fatalf("want nbi-src-reuse violation, got %v", err)
	}
}

func TestSanitizerCleanNBIUse(t *testing.T) {
	cfg := stampedeCfg()
	cfg.Sanitize = true
	err := Run(cfg, 2, func(pe *PE) {
		sym := pe.Malloc(64)
		pe.Barrier()
		if pe.MyPE() == 0 {
			buf := []byte{1, 2, 3, 4}
			pe.PutMemNBI(1, sym, 0, buf)
			pe.Quiet()
			buf[0] = 99 // after Quiet: fine
		}
		pe.Barrier()
		pe.Free(sym)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSanitizerReportsNBILeak(t *testing.T) {
	cfg := stampedeCfg()
	cfg.Sanitize = true
	err := Run(cfg, 2, func(pe *PE) {
		sym := pe.Malloc(64)
		pe.Barrier()
		// Complete all blocking traffic, then leave one NBI op in flight on
		// PE 0 with no closing Quiet. (The final Barrier would quiesce, so
		// the op is issued after it — deliberately last.)
		if pe.MyPE() == 0 {
			pe.PutMemNBI(1, sym, 0, []byte{1})
		}
	})
	if err == nil || !strings.Contains(err.Error(), "nbi-leak") {
		t.Fatalf("want nbi-leak violation, got %v", err)
	}
}

// A remote get racing an in-flight NBI put is the same race the blocking
// sanitizer catches — the recordPutNBI entries feed the same overlap check.
func TestSanitizerCatchesReadRacingNBIPut(t *testing.T) {
	cfg := stampedeCfg()
	cfg.Sanitize = true
	err := Run(cfg, 2, func(pe *PE) {
		sym := pe.Malloc(64)
		pe.Barrier()
		if pe.MyPE() == 0 {
			pe.PutMemNBI(1, sym, 0, []byte{1, 2, 3, 4})
			dst := make([]byte, 4)
			pe.GetMem(1, sym, 0, dst) // read before Quiet
			pe.Quiet()
		}
		pe.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "race") {
		t.Fatalf("want race violation, got %v", err)
	}
}

// QuietTarget waits only for one destination's completion; other
// destinations' transfers stay in flight and a later full Quiet still waits
// for them.
func TestQuietTargetWaitsForOneDestination(t *testing.T) {
	cfg := stampedeCfg()
	prof := cfg.Machine.MustProfile(cfg.Profile)
	const small, big = 1 << 8, 1 << 18
	err := Run(cfg, 3, func(pe *PE) {
		sym := pe.Malloc(big)
		pe.Barrier()
		defer pe.Barrier()
		if pe.MyPE() != 0 {
			return
		}
		intra1, pairs := pe.intra(1), pe.pairs()
		t0 := pe.Clock().Now()
		pe.PutMemNBI(1, sym, 0, make([]byte, small)) // fast op first
		pe.PutMemNBI(2, sym, 0, make([]byte, big))   // slow op behind it
		// Per-target quiet on the small transfer: completes long before the
		// big one would.
		smallDone := prof.NBITransferNs(small, intra1, pairs) + prof.DeliveryNs(intra1, pairs)
		bigDone := prof.NBITransferNs(small, intra1, pairs) + prof.NBITransferNs(big, intra1, pairs) + prof.DeliveryNs(intra1, pairs)
		pe.QuietTarget(1)
		if got := pe.Clock().Now() - t0; got >= bigDone {
			t.Errorf("QuietTarget(1) waited %g, at or past the big transfer's completion %g", got, bigDone)
		} else if got < smallDone {
			t.Errorf("QuietTarget(1) returned at %g, before the small op's completion %g", got, smallDone)
		}
		if n := pe.inFlight(); n != 1 {
			t.Errorf("destinations in flight after QuietTarget = %d, want 1 (the big op's)", n)
		}
		// The full Quiet still waits for the rest.
		pe.Quiet()
		if got := pe.Clock().Now() - t0; got < bigDone {
			t.Errorf("full Quiet returned at %g, before the big op's completion %g", got, bigDone)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// QuietTarget also completes the per-destination blocking horizon, and a
// following full Quiet still honours other destinations' blocking puts.
func TestQuietTargetCompletesBlockingHorizon(t *testing.T) {
	cfg := crayCfg()
	prof := cfg.Machine.MustProfile(cfg.Profile)
	err := Run(cfg, 3, func(pe *PE) {
		sym := pe.Malloc(1 << 16)
		pe.Barrier()
		defer pe.Barrier()
		if pe.MyPE() != 0 {
			return
		}
		intra, pairs := pe.intra(1), pe.pairs()
		pe.PutMem(1, sym, 0, make([]byte, 1<<10))
		vis1 := pe.Clock().Now() + prof.DeliveryNs(intra, pairs)
		pe.PutMem(2, sym, 0, make([]byte, 1<<14))
		vis2 := pe.Clock().Now() + prof.DeliveryNs(intra, pairs)
		pe.QuietTarget(1)
		if now := pe.Clock().Now(); now < vis1 {
			t.Errorf("QuietTarget(1) at %g, before target 1's blocking visibility %g", now, vis1)
		}
		pe.Quiet()
		if now := pe.Clock().Now(); now < vis2 {
			t.Errorf("full Quiet at %g, before target 2's blocking visibility %g", now, vis2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A nonblocking signal put (shmem_put_signal_nbi, through PE.RMA) and a wait on
// the signal word: the consumer that sees the signal sees all data streamed to
// it beforehand (signal-mediated completion), with no barrier and no quiet on
// the consumer side.
func TestPutSignalNBISignalWaitUntil(t *testing.T) {
	cfg := stampedeCfg()
	err := Run(cfg, 2, func(pe *PE) {
		data := pe.Malloc(256)
		flag := pe.Malloc(8)
		pe.Barrier()
		if pe.MyPE() == 0 {
			// Two plain NBI puts, then the fused data+signal put rides the
			// same per-target stream: flag completion >= data completions.
			pe.PutMemNBI(1, data, 0, []byte{1, 2, 3, 4})
			pe.PutMemNBI(1, data, 64, []byte{5, 6, 7, 8})
			pe.RMA(&pgas.RMA{Shape: pgas.Signal, Target: 1, Off: 128, Local: []byte{9, 10}, SigOff: flag.At(0), SigVal: 42}, data, true)
			pe.Quiet() // initiator-side completion (contract hygiene)
		} else {
			pe.WaitUntil64(flag, 0, CmpEQ, 42)
			dst := make([]byte, 256)
			pe.world.pw.Read(1, data.Off, dst)
			want := map[int]byte{0: 1, 1: 2, 2: 3, 3: 4, 64: 5, 65: 6, 66: 7, 67: 8, 128: 9, 129: 10}
			for off, w := range want {
				if dst[off] != w {
					t.Errorf("byte %d = %d, want %d (data must be visible once the signal is)", off, dst[off], w)
				}
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// QuietStat surfaces a failed target among the in-flight ops.
func TestQuietStatReportsFailedTarget(t *testing.T) {
	err := Run(stampedeCfg(), 3, func(pe *PE) {
		sym := pe.Malloc(64)
		pe.Barrier()
		switch pe.MyPE() {
		case 2:
			pe.p.Fail()
		case 0:
			// Wait until the failure is visible, then put into the corpse.
			for !pe.world.pw.Failed(2) {
			}
			pe.PutMemNBI(2, sym, 0, []byte{1, 2, 3})
			if got := pe.QuietStat(); got == nil {
				t.Error("QuietStat = nil, want ImageFault for failed target")
			}
			// And a clean quiet after a put to a live PE.
			pe.PutMemNBI(1, sym, 0, []byte{4})
			if got := pe.QuietStat(); got != nil {
				t.Errorf("QuietStat = %v, want nil for live target", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Quiet with nothing outstanding must behave exactly as before the NBI engine
// existed (the blocking path's bit-identity depends on Drain returning 0).
func TestQuietWithoutNBIUnchanged(t *testing.T) {
	cfg := crayCfg()
	prof := cfg.Machine.MustProfile(cfg.Profile)
	err := Run(cfg, 2, func(pe *PE) {
		pe.Barrier()
		t0 := pe.Clock().Now()
		pe.Quiet()
		if got := pe.Clock().Now() - t0; !near(got, prof.OverheadNs) {
			t.Errorf("empty Quiet cost %g, want %g", got, prof.OverheadNs)
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// PutSignal: data and flag travel as one injection; the awaiter adopts the
// flag's timestamp and sees the payload.
func TestPutSignalDeliversDataWithFlag(t *testing.T) {
	cfg := stampedeCfg()
	prof := cfg.Machine.MustProfile(cfg.Profile)
	err := Run(cfg, 2, func(pe *PE) {
		data := pe.Malloc(64)
		flag := pe.Malloc(8)
		pe.Barrier()
		if pe.MyPE() == 0 {
			payload := []byte{10, 20, 30, 40}
			t0 := pe.Clock().Now()
			pe.PutSignal(1, data, 0, payload, flag, 0, 7)
			got := pe.Clock().Now() - t0
			intra, pairs := pe.intra(1), pe.pairs()
			want := prof.PutInjectNs(len(payload)+8, intra, pairs)
			if !near(got, want) {
				t.Errorf("put_signal local cost %g, want %g (one injection, no quiet)", got, want)
			}
		} else {
			pe.WaitUntil64(flag, 0, CmpEQ, 7)
			dst := make([]byte, 4)
			pe.world.pw.Read(1, data.Off, dst)
			for i, want := range []byte{10, 20, 30, 40} {
				if dst[i] != want {
					t.Errorf("payload byte %d = %d, want %d", i, dst[i], want)
				}
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// NBI issue must respect injection-bandwidth sharing: two PEs on one node
// streaming concurrently see a wider gap than a lone PE, exactly as the
// blocking path does.
func TestNBITransferRespectsPairSharing(t *testing.T) {
	m := fabric.Stampede()
	prof := m.MustProfile(fabric.ProfMV2XSHMEM)
	lone := prof.NBITransferNs(4096, false, 1)
	shared := prof.NBITransferNs(4096, false, 2)
	if shared <= lone {
		t.Errorf("shared-NIC transfer %g not slower than lone %g", shared, lone)
	}
}
