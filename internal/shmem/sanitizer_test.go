package shmem

import (
	"strings"
	"testing"

	"cafshmem/internal/pgas"
)

func sanCfg() Config {
	c := stampedeCfg()
	c.Sanitize = true
	return c
}

// A get overlapping a put the issuing PE has not yet completed with
// Quiet/Fence/Barrier is the canonical §IV-B ordering bug; the sanitizer must
// report it even when the simulated timing happens to deliver the data.
func TestSanitizerDetectsRaceReadAfterPut(t *testing.T) {
	err := Run(sanCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(64)
		if pe.MyPE() == 0 {
			pe.PutMem(1, sym, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
			dst := make([]byte, 8)
			pe.GetMem(1, sym, 0, dst) // races the put above: no Quiet between
		}
		pe.Barrier()
		pe.Free(sym)
	})
	if err == nil {
		t.Fatal("sanitizer missed a get racing an un-quieted put")
	}
	for _, want := range []string{"race", "un-quieted put", "issued by PE 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// A symmetric allocation still live when the job ends is a leak: shfree is
// collective, so the offsets stay wedged on every PE for the rest of the job.
func TestSanitizerDetectsLeak(t *testing.T) {
	err := Run(sanCfg(), 2, func(pe *PE) {
		pe.Malloc(96) // never freed
		pe.Barrier()
	})
	if err == nil {
		t.Fatal("sanitizer missed a symmetric-heap leak")
	}
	for _, want := range []string{"leak", "never freed"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// PEs calling Malloc with different sizes is SPMD divergence that completes
// without deadlocking (PE 0's size wins); only the collective call-sequence
// hash catches it.
func TestSanitizerDetectsCollectiveMismatch(t *testing.T) {
	err := Run(sanCfg(), 4, func(pe *PE) {
		size := int64(64)
		if pe.MyPE() == 3 {
			size = 128 // diverges from the other PEs
		}
		sym := pe.Malloc(size)
		pe.Free(sym)
	})
	if err == nil {
		t.Fatal("sanitizer missed a diverging collective call sequence")
	}
	for _, want := range []string{"collective-mismatch", "diverges from PE 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// The same racy, leaky program must run clean when the sanitizer is off: the
// default configuration has no sanitizer state at all.
func TestSanitizerOffByDefault(t *testing.T) {
	err := Run(stampedeCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(64)
		if pe.MyPE() == 0 {
			pe.PutMem(1, sym, 0, []byte{1})
			dst := make([]byte, 1)
			pe.GetMem(1, sym, 0, dst)
		}
		pe.Barrier()
		// No Free: would be a leak under the sanitizer.
	})
	if err != nil {
		t.Fatalf("default (unsanitized) run failed: %v", err)
	}

	w, err := NewWorld(stampedeCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if w.PgasWorld().Sanitizing() {
		t.Fatal("Sanitizing() true without Config.Sanitize")
	}
	if vs := w.PgasWorld().Violations(); vs != nil {
		t.Fatalf("Violations on unsanitized world returned %v", vs)
	}
}

// A correctly synchronised program produces zero findings: put, Quiet, get,
// free everything.
func TestSanitizerCleanRun(t *testing.T) {
	err := Run(sanCfg(), 4, func(pe *PE) {
		sym := pe.Malloc(128)
		right := (pe.MyPE() + 1) % pe.NumPEs()
		pe.PutMem(right, sym, 0, []byte{byte(pe.MyPE())})
		pe.Quiet()
		pe.Barrier()
		dst := make([]byte, 1)
		pe.GetMem(right, sym, 0, dst)
		pe.Free(sym)
	})
	if err != nil {
		t.Fatalf("clean run reported violations: %v", err)
	}
}

// Barrier implies Quiet, so a put completed by Barrier is safe to read.
func TestSanitizerBarrierCompletesPuts(t *testing.T) {
	err := Run(sanCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(64)
		if pe.MyPE() == 0 {
			pe.PutMem(1, sym, 0, []byte{42})
		}
		pe.Barrier()
		if pe.MyPE() == 0 {
			dst := make([]byte, 1)
			pe.GetMem(1, sym, 0, dst)
			if dst[0] != 42 {
				panic("data lost")
			}
		}
		pe.Barrier()
		pe.Free(sym)
	})
	if err != nil {
		t.Fatalf("barrier-completed put flagged: %v", err)
	}
}

// An image that exits still holding a lock has wedged it for the whole job —
// no other image can ever take it. Finalize must report the holder and the
// acquire depth.
func TestSanitizerDetectsLockHeldAtExit(t *testing.T) {
	err := Run(sanCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(64)
		if pe.MyPE() == 0 {
			pe.SetLock(sym, 0) // never cleared
		}
		pe.Barrier()
		pe.Free(sym)
	})
	if err == nil {
		t.Fatal("sanitizer missed a lock held at image exit")
	}
	for _, want := range []string{"lock-held", "still held at image exit", "no other image can ever acquire it"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

// Balanced acquire/release pairs (including TestLock successes) leave nothing
// to report.
func TestSanitizerLockBalancedIsClean(t *testing.T) {
	err := Run(sanCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(64)
		pe.Barrier()
		pe.SetLock(sym, 0)
		pe.ClearLock(sym, 0)
		if pe.MyPE() == 1 && pe.TestLock(sym, 1) {
			pe.ClearLock(sym, 1)
		}
		pe.Barrier()
		pe.Free(sym)
	})
	if err != nil {
		t.Fatalf("balanced lock run reported violations: %v", err)
	}
}

// An image that FAILS while holding a lock is the fault-tolerant lock's
// cleanup problem, not a program bug: the held-lock check must exempt failed
// images, and the leak/divergence checks are skipped entirely once any image
// has failed (survivors legitimately diverge from the victims).
func TestSanitizerExemptsFailedImages(t *testing.T) {
	w, err := NewWorld(sanCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.PgasWorld().Run(func(p *pgas.PE) {
		pe := w.Attach(p)
		sym := pe.Malloc(64) // never freed: must not be reported once a PE failed
		if pe.MyPE() == 1 {
			pe.SetLock(sym, 0)
			p.Fail() // dies holding the lock
		}
	})
	if err != nil {
		t.Fatalf("the end-of-job checks after an image failure reported %v; failed holders and post-failure leaks are expected, not bugs", err)
	}
}

// Violations are observable as structured values through the pgas world's
// Violations, not only as Run's folded error.
func TestSanitizerViolationsAPI(t *testing.T) {
	w, err := NewWorld(sanCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	pw := w.PgasWorld()
	if !pw.Sanitizing() {
		t.Fatal("Sanitizing() false with Config.Sanitize")
	}
	err = pw.Run(func(p *pgas.PE) {
		pe := w.Attach(p)
		sym := pe.Malloc(64)
		if pe.MyPE() == 0 {
			pe.PutMem(1, sym, 0, []byte{1})
			dst := make([]byte, 1)
			pe.GetMem(1, sym, 0, dst)
		}
		pe.Barrier()
		pe.Free(sym)
	})
	if err == nil || !strings.Contains(err.Error(), "1 violation(s)") {
		t.Fatalf("Run = %v, want the one violation", err)
	}
	vs := pw.Violations()
	if len(vs) != 1 || vs[0].Kind != "race" || vs[0].PE != 0 {
		t.Fatalf("expected exactly one race on PE 0, got %v", vs)
	}
	if s := vs[0].String(); !strings.Contains(s, "sanitizer: race (PE 0)") {
		t.Fatalf("violation String() = %q", s)
	}
}
