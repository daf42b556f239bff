package pgas

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"cafshmem/internal/fabric"
)

func testWorld(t *testing.T, n int) *World {
	t.Helper()
	w, err := NewWorld(fabric.Stampede(), n)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(fabric.Stampede(), 0); err == nil {
		t.Fatal("0 PEs should be rejected")
	}
	if _, err := NewWorld(nil, 4); err == nil {
		t.Fatal("nil machine should be rejected")
	}
}

func TestRunExecutesEveryPE(t *testing.T) {
	var count int64
	seen := make([]int64, 8)
	err := Run(fabric.Stampede(), 8, func(p *PE) {
		atomic.AddInt64(&count, 1)
		atomic.StoreInt64(&seen[p.ID], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Fatalf("ran %d bodies, want 8", count)
	}
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("PE %d never ran", i)
		}
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	err := Run(fabric.Stampede(), 2, func(p *PE) {
		if p.ID == 1 {
			panic("boom")
		}
		// PE 0 parks in a barrier; the poison must wake it.
		p.Barrier(0)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected propagated panic, got %v", err)
	}
}

func TestOneSidedWriteRead(t *testing.T) {
	w := testWorld(t, 4)
	w.Write(2, 128, []byte{1, 2, 3, 4}, 10)
	got := make([]byte, 4)
	w.Read(2, 128, got)
	if got[0] != 1 || got[3] != 4 {
		t.Fatalf("read back %v", got)
	}
	// Other PEs' partitions are untouched.
	other := make([]byte, 4)
	w.Read(1, 128, other)
	for _, b := range other {
		if b != 0 {
			t.Fatalf("partition 1 polluted: %v", other)
		}
	}
}

func TestUint64Roundtrip(t *testing.T) {
	w := testWorld(t, 2)
	w.WriteUint64(1, 64, 0xdeadbeefcafe, 0)
	if got := w.ReadUint64(1, 64); got != 0xdeadbeefcafe {
		t.Fatalf("got %#x", got)
	}
}

func TestSegmentGrowth(t *testing.T) {
	w := testWorld(t, 1)
	w.Write(0, 1<<20, []byte{42}, 0) // 1 MiB offset forces growth
	b := make([]byte, 1)
	w.Read(0, 1<<20, b)
	if b[0] != 42 {
		t.Fatal("byte lost across growth")
	}
}

// Every entry that stores, or waits on, partition memory refuses a range
// ending past MaxSegmentBytes with a pgas range panic, before it takes a lock
// or materialises anything.
func TestSegmentLimitEnforced(t *testing.T) {
	w := testWorld(t, 2)
	defer w.Close()
	const end = MaxSegmentBytes - 4 // an 8-byte word here ends past the bound
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, c := range []struct {
		what string
		f    func()
	}{
		{"Write", func() { w.Write(0, end, data, 0) }},
		{"WriteV", func() { w.WriteV(0, end-4, 8, 4, data, 0) }},
		{"WriteRuns", func() { w.WriteRuns(0, end-4, []int64{0, 8}, 4, data, []float64{0, 0}) }},
		{"RMW64", func() { w.RMW64(0, end, OpAdd, 1, 0) }},
		{"RepairWrite", func() { w.RepairWrite(0, end, data, 0) }},
		{"ReadUint64Ts", func() { w.ReadUint64Ts(0, end) }},
		{"Touch", func() { w.Touch(0, MaxSegmentBytes, 0) }},
		{"Spin", func() { w.PE(0).Spin(1, end, 1, 1, func() (uint64, bool) { return 0, true }) }},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "pgas: ") {
					t.Errorf("%s past MaxSegmentBytes: recovered %q, want a pgas range panic", c.what, msg)
				}
			}()
			c.f()
		}()
	}
	if s := w.PageStats(); s != (PageStats{}) {
		t.Errorf("a refused store materialised memory: %v", s)
	}
}

func TestRMW64Ops(t *testing.T) {
	w := testWorld(t, 2)
	w.WriteUint64(1, 0, 10, 0)
	if old := w.RMW64(1, 0, OpAdd, 5, 0); old != 10 {
		t.Fatalf("add returned old=%d, want 10", old)
	}
	if v := w.ReadUint64(1, 0); v != 15 {
		t.Fatalf("after add: %d, want 15", v)
	}
	if old := w.RMW64(1, 0, OpSwap, 99, 0); old != 15 {
		t.Fatalf("swap returned %d, want 15", old)
	}
	w.WriteUint64(1, 8, 0b1100, 0)
	w.RMW64(1, 8, OpAnd, 0b1010, 0)
	if v := w.ReadUint64(1, 8); v != 0b1000 {
		t.Fatalf("and: %b", v)
	}
	w.RMW64(1, 8, OpOr, 0b0001, 0)
	if v := w.ReadUint64(1, 8); v != 0b1001 {
		t.Fatalf("or: %b", v)
	}
	w.RMW64(1, 8, OpXor, 0b1111, 0)
	if v := w.ReadUint64(1, 8); v != 0b0110 {
		t.Fatalf("xor: %b", v)
	}
}

func TestCompareSwap64(t *testing.T) {
	w := testWorld(t, 1)
	w.WriteUint64(0, 0, 7, 0)
	p := w.PE(0)
	if old, ok := p.CompareSwap64Stat(0, 0, 7, 11, Price{}); old != 7 || !ok {
		t.Fatalf("successful cswap returned %d", old)
	}
	if v := w.ReadUint64(0, 0); v != 11 {
		t.Fatalf("cswap did not store: %d", v)
	}
	if old, _ := p.CompareSwap64Stat(0, 0, 7, 99, Price{}); old != 11 {
		t.Fatalf("failed cswap returned %d, want 11", old)
	}
	if v := w.ReadUint64(0, 0); v != 11 {
		t.Fatalf("failed cswap must not store: %d", v)
	}
}

func TestWaitUntilWakesAndCarriesTimestamp(t *testing.T) {
	w := testWorld(t, 2)
	done := make(chan float64, 1)
	go func() {
		ts := w.PE(0).WaitUntil64(16, func(v uint64) bool { return v == 1 })
		done <- ts
	}()
	// Wait until the watch is registered so the write's timestamp is
	// guaranteed to be observed (the watch records only post-registration
	// writes by design).
	for {
		p := w.PE(0)
		p.mu.Lock()
		watching := p.watch.on != nil
		p.mu.Unlock()
		if watching {
			break
		}
		runtime.Gosched()
	}
	w.WriteUint64(0, 16, 1, 12345)
	if ts := <-done; ts != 12345 {
		t.Fatalf("WaitUntil timestamp = %v, want 12345", ts)
	}
}

func TestWaitUntilAlreadySatisfied(t *testing.T) {
	w := testWorld(t, 1)
	w.WriteUint64(0, 0, 5, 999)
	// Even though the watch registers after the write, the per-word
	// timestamp index recovers the causal visibility time — the waiter must
	// not observe the value "before" it was written.
	ts := w.PE(0).WaitUntil64(0, func(v uint64) bool { return v == 5 })
	if ts != 999 {
		t.Fatalf("pre-satisfied wait returned ts=%v, want 999 (causal)", ts)
	}
}

func TestBarrierAggregatesMaxClock(t *testing.T) {
	w := testWorld(t, 4)
	err := w.Run(func(p *PE) {
		p.Clock.Advance(float64(p.ID) * 100) // PE 3 is the laggard at t=300
		p.Barrier(50)
		if got := p.Clock.Now(); got != 350 {
			panic("barrier release time wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReusable(t *testing.T) {
	w := testWorld(t, 3)
	err := w.Run(func(p *PE) {
		for i := 0; i < 10; i++ {
			p.Clock.Advance(1)
			p.Barrier(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestActivePairsDefaultsToNodeOccupancy(t *testing.T) {
	w := testWorld(t, 20) // 16 cores/node: node0 full, node1 has 4
	if got := w.ActivePairs(0); got != 16 {
		t.Fatalf("node 0 occupancy = %d, want 16", got)
	}
	if got := w.ActivePairs(19); got != 4 {
		t.Fatalf("node 1 occupancy = %d, want 4", got)
	}
	w, err := NewWorldOpts(fabric.Stampede(), 20, Options{ActivePairs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pe := range []int{0, 19} {
		if got := w.ActivePairs(pe); got != 1 {
			t.Fatalf("PE %d: Options.ActivePairs 1 ignored: %d", pe, got)
		}
	}
}

// TestActivePairsMatchesPlacement: the division-free answer equals the count
// of the job's ranks on each PE's node, for full, partial and single nodes
// and for a machine with no node structure.
func TestActivePairsMatchesPlacement(t *testing.T) {
	for _, per := range []int{0, 1, 3, 16} {
		m := *fabric.Stampede()
		m.CoresPerNode = per
		for _, n := range []int{1, 2, 3, 15, 16, 17, 32, 35} {
			w, err := NewWorld(&m, n)
			if err != nil {
				t.Fatal(err)
			}
			for pe := 0; pe < n; pe++ {
				want := 0
				for q := 0; q < n; q++ {
					if per > 0 && m.SameNode(pe, q) {
						want++
					}
				}
				if per <= 0 {
					want = 1
				}
				if got := w.ActivePairs(pe); got != want {
					t.Fatalf("cores/node %d, %d PEs: ActivePairs(%d) = %d, want %d", per, n, pe, got, want)
				}
			}
		}
	}
}

func TestConcurrentOneSidedTraffic(t *testing.T) {
	// Hammer one target partition from many PEs; exercises the per-partition
	// lock under -race.
	w := testWorld(t, 8)
	err := w.Run(func(p *PE) {
		for i := 0; i < 200; i++ {
			w.RMW64(0, 0, OpAdd, 1, float64(i))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.ReadUint64(0, 0); got != 8*200 {
		t.Fatalf("lost updates: %d, want 1600", got)
	}
}
