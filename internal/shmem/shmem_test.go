package shmem

import (
	"strings"
	"sync/atomic"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

func stampedeCfg() Config {
	return Config{Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM}
}

func crayCfg() Config {
	return Config{Machine: fabric.CrayXC30(), Profile: fabric.ProfCraySHMEM}
}

func TestRunIdentityIntrinsics(t *testing.T) {
	var seen int64
	err := Run(stampedeCfg(), 6, func(pe *PE) {
		if pe.NumPEs() != 6 {
			panic("NumPEs wrong")
		}
		if pe.MyPE() < 0 || pe.MyPE() >= 6 {
			panic("MyPE out of range")
		}
		atomic.AddInt64(&seen, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 6 {
		t.Fatalf("%d PEs ran", seen)
	}
}

// TestAttachReturnsTheRanksHandle: a PE's handle is its rank's element of the
// world's PE table — attaching the PE again gives the handle Run gave, and no
// two ranks share one.
func TestAttachReturnsTheRanksHandle(t *testing.T) {
	const n = 4
	var handles [n]*PE
	err := Run(stampedeCfg(), n, func(pe *PE) {
		if again := pe.world.Attach(pe.Pgas()); again != pe {
			t.Errorf("PE %d: attaching again gave another handle", pe.MyPE())
		}
		handles[pe.MyPE()] = pe
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range handles {
		for j, b := range handles[:i] {
			if a == b {
				t.Errorf("PEs %d and %d share a handle", j, i)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewWorld(Config{}, 2); err == nil {
		t.Fatal("missing machine should fail")
	}
	if _, err := NewWorld(Config{Machine: fabric.Stampede(), Profile: "bogus"}, 2); err == nil {
		t.Fatal("unknown profile should fail")
	}
}

func TestMallocSymmetric(t *testing.T) {
	// All PEs must receive the same handle, and successive allocations must
	// not alias.
	syms := make([]Sym, 4)
	syms2 := make([]Sym, 4)
	err := Run(stampedeCfg(), 4, func(pe *PE) {
		s := pe.Malloc(128)
		syms[pe.MyPE()] = s
		s2 := pe.Malloc(64)
		syms2[pe.MyPE()] = s2
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if syms[i] != syms[0] || syms2[i] != syms2[0] {
			t.Fatalf("allocation not symmetric: %+v vs %+v", syms[i], syms[0])
		}
	}
	if syms[0] == syms2[0] {
		t.Fatal("two allocations aliased")
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	err := Run(stampedeCfg(), 4, func(pe *PE) {
		sym := pe.Malloc(64)
		// Everyone writes its rank into the next PE's buffer (Fig 1 style).
		next := (pe.MyPE() + 1) % pe.NumPEs()
		Put(pe, next, sym, 0, []int64{int64(pe.MyPE())})
		pe.Barrier()
		prev := (pe.MyPE() + pe.NumPEs() - 1) % pe.NumPEs()
		got := G[int64](pe, pe.MyPE(), sym, 0)
		if got != int64(prev) {
			panic("put did not land")
		}
		// And a remote get of our own value from next's buffer.
		if v := G[int64](pe, next, sym, 0); v != int64(pe.MyPE()) {
			panic("remote get wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutBoundsChecked(t *testing.T) {
	err := Run(stampedeCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(8)
		if pe.MyPE() == 0 {
			pe.PutMem(1, sym, 4, []byte{1, 2, 3, 4, 5}) // overflows by 1
		}
	})
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("expected overflow panic, got %v", err)
	}
}

func TestPutAdvancesClockAndQuietMerges(t *testing.T) {
	err := Run(stampedeCfg(), 17, func(pe *PE) { // 17 PEs: PE 16 is inter-node from PE 0
		sym := pe.Malloc(1 << 20)
		if pe.MyPE() == 0 {
			before := pe.Clock().Now()
			data := make([]byte, 1<<20)
			pe.PutMem(16, sym, 0, data)
			afterInject := pe.Clock().Now()
			if afterInject <= before {
				panic("put did not advance clock")
			}
			pe.Quiet()
			if pe.Clock().Now() <= afterInject {
				panic("quiet did not account for remote delivery")
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTypedRoundtrips(t *testing.T) {
	err := Run(stampedeCfg(), 2, func(pe *PE) {
		f := pe.Malloc(256)
		if pe.MyPE() == 0 {
			Put(pe, 1, f, 2, []float64{3.5, -1.25})
			pe.Quiet()
		}
		pe.Barrier()
		if pe.MyPE() == 1 {
			if G[float64](pe, 1, f, 2) != 3.5 || G[float64](pe, 1, f, 3) != -1.25 {
				panic("float64 roundtrip failed")
			}
		}
		pe.Barrier()
		// Single-element P/G.
		if pe.MyPE() == 1 {
			P(pe, 0, f, 7, int32(-42))
			pe.Quiet()
		}
		pe.Barrier()
		if pe.MyPE() == 0 {
			if G[int32](pe, 0, f, 7) != -42 {
				panic("int32 P/G failed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// iput is the 1-D strided put of shmem_iput through PE.RMA: the elements of
// src, densely, to every stride-th element of sym from element 0 on target.
func iput(pe *PE, target int, sym Sym, stride int, src []int64) {
	pe.RMA(&pgas.RMA{Shape: pgas.Strided, Target: target, Local: pgas.Bytes(src), Unit: 8, Stride: 8 * int64(stride)}, sym, false)
}

func TestIPutMovesRightElements(t *testing.T) {
	err := Run(crayCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(8 * 64)
		if pe.MyPE() == 0 {
			src := make([]int64, 5)
			for i := range src {
				src[i] = int64(100 + 2*i)
			}
			// Every source element to every 3rd destination slot.
			iput(pe, 1, sym, 3, src)
			pe.Quiet()
		}
		pe.Barrier()
		if pe.MyPE() == 1 {
			for k := 0; k < 5; k++ {
				got := G[int64](pe, 1, sym, 3*k)
				if got != int64(100+2*k) {
					panic("iput landed wrong element")
				}
			}
			// Holes untouched.
			if G[int64](pe, 1, sym, 1) != 0 || G[int64](pe, 1, sym, 2) != 0 {
				panic("iput polluted holes")
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIGetMirrorsIPut(t *testing.T) {
	err := Run(crayCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(8 * 32)
		if pe.MyPE() == 1 {
			for i := 0; i < 32; i++ {
				P(pe, 1, sym, i, int64(i*i))
			}
		}
		pe.Barrier()
		if pe.MyPE() == 0 {
			dst := make([]int64, 8)
			pe.RMA(&pgas.RMA{Get: true, Shape: pgas.Strided, Target: 1, Local: pgas.Bytes(dst), Unit: 8, Stride: 32}, sym, false) // every 4th element
			for k := 0; k < 8; k++ {
				if dst[k] != int64((4*k)*(4*k)) {
					panic("iget element wrong")
				}
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIPutCostHardwareVsLoop(t *testing.T) {
	// Same transfer, two library models: Cray (hardware iput) must be much
	// cheaper than MVAPICH2-X (loop of putmem) — paper §V-B2.
	measure := func(cfg Config) float64 {
		var cost float64
		err := Run(cfg, 17, func(pe *PE) {
			sym := pe.Malloc(8 * 4096)
			pe.Barrier()
			pe.Clock().Reset()
			if pe.MyPE() == 0 {
				iput(pe, 16, sym, 2, make([]int64, 2048))
				pe.Quiet()
				cost = pe.Clock().Now()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	hw := measure(Config{Machine: fabric.CrayXC30(), Profile: fabric.ProfCraySHMEM})
	loop := measure(stampedeCfg())
	if hw >= loop/3 {
		t.Fatalf("hardware iput (%v ns) should be far cheaper than loop iput (%v ns)", hw, loop)
	}
}

func TestWaitUntilPointToPoint(t *testing.T) {
	err := Run(stampedeCfg(), 2, func(pe *PE) {
		flag := pe.Malloc(8)
		data := pe.Malloc(8)
		if pe.MyPE() == 0 {
			P(pe, 1, data, 0, int64(777))
			pe.Quiet() // data before flag
			P(pe, 1, flag, 0, int64(1))
			pe.Quiet()
		} else {
			pe.WaitUntil64(flag, 0, CmpEQ, 1)
			if G[int64](pe, 1, data, 0) != 777 {
				panic("flag arrived before data")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAtomicsConcurrent(t *testing.T) {
	const per = 50
	var final int64
	err := Run(stampedeCfg(), 8, func(pe *PE) {
		ctr := pe.Malloc(8)
		for i := 0; i < per; i++ {
			pe.FetchAdd(0, ctr, 0, 1)
		}
		pe.Barrier()
		if pe.MyPE() == 0 {
			final = G[int64](pe, 0, ctr, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final != 8*per {
		t.Fatalf("lost atomic increments: %d", final)
	}
}

func TestAtomicBitwiseAndSwap(t *testing.T) {
	err := Run(stampedeCfg(), 2, func(pe *PE) {
		w := pe.Malloc(8)
		if pe.MyPE() == 0 {
			pe.SwapStat(1, w, 0, 0b1111)
			if old := pe.FetchAnd(1, w, 0, 0b1010); old != 0b1111 {
				panic("FetchAnd old value wrong")
			}
			if old := pe.FetchOr(1, w, 0, 0b0100); old != 0b1010 {
				panic("FetchOr old value wrong")
			}
			if old := pe.FetchXor(1, w, 0, 0b0001); old != 0b1110 {
				panic("FetchXor old value wrong")
			}
			if pe.FetchAdd(1, w, 0, 0) != 0b1111 {
				panic("final value wrong")
			}
			if old, _ := pe.SwapStat(1, w, 0, 5); old != 0b1111 {
				panic("Swap old value wrong")
			}
			if old, _ := pe.CompareSwapStat(1, w, 0, 5, 9); old != 5 {
				panic("CompareSwap success path wrong")
			}
			if old, _ := pe.CompareSwapStat(1, w, 0, 5, 11); old != 9 {
				panic("CompareSwap failure path wrong")
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// engineSpellings are the two values of the deprecated pgas.Options.Engine,
// which benchmark/ still passes and which select nothing; the subtests whose
// names the test floor pins run once per spelling (internal/pgas/steady_test.go).
var engineSpellings = []struct {
	name   string
	engine pgas.Engine
}{{"goroutine", pgas.EngineGoroutine}, {"event", pgas.EngineEvent}}

func TestBarrierCompletesPendingPuts(t *testing.T) {
	err := Run(stampedeCfg(), 3, func(pe *PE) {
		sym := pe.Malloc(8)
		if pe.MyPE() == 0 {
			P(pe, 2, sym, 0, int64(9))
			// No explicit Quiet: Barrier must provide completion.
		}
		pe.Barrier()
		if pe.MyPE() == 2 {
			if G[int64](pe, 2, sym, 0) != 9 {
				panic("barrier did not complete the put")
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitUntilComparisons(t *testing.T) {
	cases := []struct {
		cmp    Cmp
		preset int64 // initial value that does NOT satisfy cmp against 10
		value  int64 // stored value that satisfies cmp against 10
	}{
		{CmpEQ, 0, 10}, {CmpNE, 10, 3}, {CmpGT, 10, 11},
		{CmpGE, 9, 10}, {CmpLT, 10, 9}, {CmpLE, 11, 10},
	}
	for _, tc := range cases {
		err := Run(stampedeCfg(), 2, func(pe *PE) {
			w := pe.Malloc(8)
			P(pe, pe.MyPE(), w, 0, tc.preset)
			pe.Barrier()
			if pe.MyPE() == 0 {
				P(pe, 1, w, 0, tc.value)
				pe.Quiet()
			} else {
				pe.WaitUntil64(w, 0, tc.cmp, 10)
				if got := G[int64](pe, 1, w, 0); got != tc.value {
					panic("woke on wrong value")
				}
			}
			pe.Barrier()
		})
		if err != nil {
			t.Fatalf("cmp %v: %v", tc.cmp, err)
		}
	}
}

func TestCmpHolds(t *testing.T) {
	type tri struct {
		a, b int64
		want bool
	}
	table := map[Cmp][]tri{
		CmpEQ: {{1, 1, true}, {1, 2, false}},
		CmpNE: {{1, 2, true}, {1, 1, false}},
		CmpGT: {{2, 1, true}, {1, 1, false}},
		CmpGE: {{1, 1, true}, {0, 1, false}},
		CmpLT: {{0, 1, true}, {1, 1, false}},
		CmpLE: {{1, 1, true}, {2, 1, false}},
	}
	for cmp, rows := range table {
		for _, r := range rows {
			if cmp.Holds(r.a, r.b) != r.want {
				t.Fatalf("cmp %v holds(%d,%d) != %v", cmp, r.a, r.b, r.want)
			}
		}
	}
}
