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

// PEs calling Malloc with different sizes is SPMD divergence that would
// complete without deadlocking; the rendezvous they meet at names both calls,
// with the sanitizer on or off, and allocates nothing.
func TestSanitizerDetectsCollectiveMismatch(t *testing.T) {
	for _, cfg := range []Config{sanCfg(), stampedeCfg()} {
		err := Run(cfg, 4, func(pe *PE) {
			size := int64(64)
			if pe.MyPE() == 3 {
				size = 128 // diverges from the other PEs
			}
			sym := pe.Malloc(size)
			pe.Free(sym)
		})
		if err == nil {
			t.Fatalf("sanitize=%v: a diverging collective call ran clean", cfg.Sanitize)
		}
		for _, want := range []string{"collective-mismatch", "Malloc(64)", "PE 3 called Malloc(128)"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("sanitize=%v: error %q does not mention %q", cfg.Sanitize, err, want)
			}
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
	defer w.PgasWorld().Close()
	if w.PgasWorld().Sanitizing() {
		t.Fatal("Sanitizing() true without Config.Sanitize")
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

// An image that FAILS while holding a lock is the fault-tolerant lock's
// cleanup problem, not a program bug: the held-lock check must exempt failed
// images, and the leak/divergence checks are skipped entirely once any image
// has failed (survivors legitimately diverge from the victims).
func TestSanitizerExemptsFailedImages(t *testing.T) {
	w, err := NewWorld(sanCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.PgasWorld().Close()
	err = w.PgasWorld().Run(func(p *pgas.PE) {
		pe := w.Attach(p)
		sym := pe.Malloc(64) // never freed: must not be reported once a PE failed
		if pe.MyPE() == 1 {
			p.NoteLockAcquired("test.lock", sym.Off, 0, true) // what a lock's acquisition records
			p.Fail()                                          // dies holding the lock
		}
	})
	if err != nil {
		t.Fatalf("the end-of-job checks after an image failure reported %v; failed holders and post-failure leaks are expected, not bugs", err)
	}
}

// Violations come back folded into Run's error: their count, then one line per
// finding naming its kind and PE.
func TestSanitizerViolationsAPI(t *testing.T) {
	w, err := NewWorld(sanCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	pw := w.PgasWorld()
	defer pw.Close()
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
	if n := strings.Count(err.Error(), "sanitizer: "); n != 1 || !strings.Contains(err.Error(), "sanitizer: race (PE 0)") {
		t.Fatalf("Run = %v, want exactly one race on PE 0", err)
	}
}

// Every entry that takes a handle checks it against the live heap: a handle
// used after its Free is a bad-handle finding naming the op, the handle and
// the PE, at each of the library's two choke points — issue (every put and
// get) and wordOff (every atomic, wait and signal word). A second object stays
// live after the freed one, so its space is not reused.
func TestFreedHandleReportedAtEveryEntry(t *testing.T) {
	one := []byte{1}
	strided := func(get bool, local []byte) *pgas.RMA {
		return &pgas.RMA{Get: get, Shape: pgas.Strided, Target: 1, Local: local, Unit: 8, Stride: 16}
	}
	cases := []struct {
		family, op string
		use        func(pe *PE, gone, live Sym)
	}{
		{"put", "put", func(pe *PE, gone, _ Sym) { pe.PutMem(1, gone, 0, one) }},
		{"get", "get", func(pe *PE, gone, _ Sym) { pe.GetMem(1, gone, 0, one) }},
		{"putv", "putmemv", func(pe *PE, gone, _ Sym) { pe.PutMemV(1, gone, []int64{0, 16}, 1, []byte{1, 2}) }},
		{"getv", "getmemv", func(pe *PE, gone, _ Sym) {
			pe.RMA(&pgas.RMA{Get: true, Shape: pgas.Runs, Target: 1, Local: make([]byte, 2), Offs: []int64{0, 16}, Unit: 1}, gone, false)
		}},
		{"iputmem", "iputmem", func(pe *PE, gone, _ Sym) { pe.RMA(strided(false, make([]byte, 16)), gone, false) }},
		{"put nbi", "put_nbi", func(pe *PE, gone, _ Sym) { pe.PutMemNBI(1, gone, 0, one); pe.Quiet() }},
		{"get nbi", "get_nbi", func(pe *PE, gone, _ Sym) {
			pe.RMA(&pgas.RMA{Get: true, Target: 1, Local: make([]byte, 1)}, gone, true)
			pe.Quiet()
		}},
		{"putv nbi", "putmemv_nbi", func(pe *PE, gone, _ Sym) {
			pe.RMA(&pgas.RMA{Shape: pgas.Runs, Target: 1, Local: one, Offs: []int64{0}, Unit: 1}, gone, true)
			pe.Quiet()
		}},
		{"iputmem nbi", "iputmem_nbi", func(pe *PE, gone, _ Sym) { pe.RMA(strided(false, make([]byte, 16)), gone, true); pe.Quiet() }},
		{"igetmem nbi", "igetmem_nbi", func(pe *PE, gone, _ Sym) { pe.RMA(strided(true, make([]byte, 16)), gone, true); pe.Quiet() }},
		{"repair put", "repair put", func(pe *PE, gone, _ Sym) { pe.RMA(&pgas.RMA{Shape: pgas.Forensic, Target: 1, Local: one}, gone, false) }},
		{"forensic get", "repair get", func(pe *PE, gone, _ Sym) {
			pe.RMA(&pgas.RMA{Get: true, Shape: pgas.Forensic, Target: 1, Local: make([]byte, 8)}, gone, false)
		}},
		{"signal data", "put_signal", func(pe *PE, gone, live Sym) { pe.PutSignal(1, gone, 0, one, live, 0, 1) }},
		{"signal word", "put_signal", func(pe *PE, gone, live Sym) { pe.PutSignal(1, live, 0, one, gone, 0, 1) }},
		{"atomic", "fetch_add", func(pe *PE, gone, _ Sym) { pe.FetchAdd(1, gone, 0, 1) }},
		{"atomic bitwise", "fetch_xor", func(pe *PE, gone, _ Sym) { pe.FetchXor(1, gone, 0, 1) }},
		{"stat atomic", "swap", func(pe *PE, gone, _ Sym) { pe.SwapStat(1, gone, 0, 1) }},
		{"stat cas", "compare_swap", func(pe *PE, gone, _ Sym) { pe.CompareSwapStat(1, gone, 0, 0, 0) }},
		{"wait", "wait_until", func(pe *PE, gone, _ Sym) { pe.WaitUntil64(gone, 0, CmpEQ, 0) }},
	}
	run := func(use func(pe *PE, gone, live Sym)) error {
		return Run(sanCfg(), 2, func(pe *PE) {
			gone, live := pe.Malloc(64), pe.Malloc(64)
			pe.Free(gone)
			if pe.MyPE() == 0 {
				use(pe, gone, live)
			}
			pe.Barrier()
			pe.Free(live)
		})
	}
	if err := run(func(*PE, Sym, Sym) {}); err != nil {
		t.Fatalf("the harness alone is not clean: %v", err)
	}
	for _, c := range cases {
		err := run(c.use)
		want := "sanitizer: bad-handle (PE 0): " + c.op + " through handle {Off: 64, Size: 64}"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Run = %v, want %q", c.family, err, want)
		}
	}
}
