package shmem

import (
	"strings"
	"testing"
)

// Negative-path coverage: misuse must fail loudly, not corrupt state.

func TestFreeUnallocatedPanics(t *testing.T) {
	err := Run(stampedeCfg(), 2, func(pe *PE) {
		pe.Free(Sym{Off: 12345, Size: 8})
	})
	if err == nil {
		t.Fatal("free of unallocated symmetric object should panic")
	}
}

func TestIPutStrideValidation(t *testing.T) {
	for name, body := range map[string]func(pe *PE, sym Sym){
		"zero stride": func(pe *PE, sym Sym) {
			IPut(pe, 1, sym, 0, 0, []int64{1, 2}, 0, 1, 2)
		},
		"overflow": func(pe *PE, sym Sym) {
			IPut(pe, 1, sym, 0, 100, []int64{1, 2, 3}, 0, 1, 3)
		},
		"iputmem partial element": func(pe *PE, sym Sym) {
			pe.IPutMem(1, sym, 0, 16, 8, make([]byte, 12))
		},
		"iputmem tight stride": func(pe *PE, sym Sym) {
			pe.IPutMem(1, sym, 0, 4, 8, make([]byte, 16))
		},
	} {
		err := Run(stampedeCfg(), 2, func(pe *PE) {
			sym := pe.Malloc(64)
			if pe.MyPE() == 0 {
				body(pe, sym)
			}
		})
		if err == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}
}

func TestTargetRangeChecked(t *testing.T) {
	err := Run(stampedeCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(8)
		pe.PutMem(5, sym, 0, []byte{1}) // PE 5 of 2
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("expected target range panic, got %v", err)
	}
}

func TestMallocSizeValidation(t *testing.T) {
	err := Run(stampedeCfg(), 2, func(pe *PE) {
		pe.Malloc(-4)
	})
	if err == nil {
		t.Fatal("negative symmetric allocation should panic")
	}
	err = Run(stampedeCfg(), 2, func(pe *PE) {
		pe.Malloc(0)
	})
	if err == nil || !strings.Contains(err.Error(), "must be positive") {
		t.Fatalf("zero-size symmetric allocation should panic, got %v", err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	// The second collective Free of the same handle must fail on every PE —
	// shfree semantics, and the PE-level counterpart of TestHeapDoubleFree.
	err := Run(stampedeCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(64)
		pe.Free(sym)
		pe.Free(sym)
	})
	if err == nil || !strings.Contains(err.Error(), "free of unallocated offset") {
		t.Fatalf("expected double-free panic, got %v", err)
	}
}

func TestSymAtPanicMessage(t *testing.T) {
	// The bounds panic names the offending offset and the object size, so a
	// user can tell which access overran without a debugger.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("out-of-range At should panic")
		}
		msg, ok := r.(string)
		if !ok || msg != "shmem: offset 9 out of range of 8-byte symmetric object" {
			t.Fatalf("panic message = %v", r)
		}
	}()
	Sym{Off: 64, Size: 8}.At(9)
}

// A word op addresses 8 bytes, and all 8 must lie inside the object: on a
// 12-byte object word 1 is bytes [8,16), past its end, in every word family.
func TestWordOpPastObjectPanics(t *testing.T) {
	for name, use := range map[string]func(pe *PE, sym Sym){
		"atomic":      func(pe *PE, sym Sym) { pe.FetchAdd(1, sym, 1, 1) },
		"stat atomic": func(pe *PE, sym Sym) { pe.SwapStat(1, sym, 1, 1) },
		"wait":        func(pe *PE, sym Sym) { pe.WaitUntil64(sym, 1, CmpEQ, 0) },
		"signal word": func(pe *PE, sym Sym) { pe.PutSignal(1, sym, 0, []byte{1}, sym, 1, 1) },
		"lock":        func(pe *PE, sym Sym) { pe.SetLock(sym, 1) },
	} {
		err := Run(stampedeCfg(), 2, func(pe *PE) {
			sym := pe.Malloc(12)
			if pe.MyPE() == 0 {
				use(pe, sym)
			}
		})
		if err == nil || !strings.Contains(err.Error(), "word 1 (bytes [8,16)) out of range of 12-byte symmetric object") {
			t.Errorf("%s: Run = %v, want the word's out-of-range panic", name, err)
		}
	}
}
