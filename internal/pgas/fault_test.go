package pgas

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"cafshmem/internal/fabric"
)

func testMachine() *fabric.Machine {
	return &fabric.Machine{Name: "test", CoresPerNode: 4}
}

func TestFailFreezesPartitionAndReportsState(t *testing.T) {
	w, err := NewWorld(testMachine(), 3)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *PE) {
		if p.ID == 1 {
			p.StoreLocal(0, []byte{0xAA})
			p.Fail()
			t.Error("Fail must not return")
		}
		// Survivors: wait until PE 1 is gone, then poke its partition.
		p.WaitUntilStat(128, 1, func(b []byte) bool { return w.Failed(1) }, nil)
		w.Write(1, 0, []byte{0xBB}, p.Clock.Now()) // must be dropped
		var b [1]byte
		w.Read(1, 0, b[:])
		if b[0] != 0xAA {
			t.Errorf("PE %d: failed partition mutated: got %#x, want 0xAA", p.ID, b[0])
		}
		if old := w.RMW64(1, 64, OpSwap, 7, p.Clock.Now()); old != 0 {
			t.Errorf("frozen RMW64 returned %d, want 0", old)
		}
		if v := w.ReadUint64(1, 64); v != 0 {
			t.Errorf("frozen word mutated to %d", v)
		}
	})
	if err != nil {
		t.Fatalf("survivors should finish cleanly: %v", err)
	}
	if !w.Failed(1) || w.Alive(1) {
		t.Error("PE 1 should be failed")
	}
	if !w.Stopped(0) || !w.Stopped(2) {
		t.Error("PEs 0 and 2 should be stopped after normal return")
	}
	if got := w.FailedPEs(); len(got) != 1 || got[0] != 1 {
		t.Errorf("FailedPEs = %v, want [1]", got)
	}
	for id := range 3 {
		if w.Alive(id) {
			t.Errorf("PE %d still alive after everyone departed", id)
		}
	}
}

func TestBarrierReleasesOnDepartWithFault(t *testing.T) {
	w, err := NewWorld(testMachine(), 3)
	if err != nil {
		t.Fatal(err)
	}
	var faults atomic.Int32
	err = w.Run(func(p *PE) {
		if p.ID == 2 {
			p.Fail()
		}
		if err := p.BarrierTolerantDo(0, nil, nil, 0); err != nil {
			var fe *ImageFault
			if !errors.As(err, &fe) || len(fe.Failed) != 1 || fe.Failed[0] != 2 {
				t.Errorf("PE %d: barrier fault = %v, want failed=[2]", p.ID, err)
			}
			faults.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if faults.Load() != 2 {
		t.Errorf("%d survivors observed the fault, want 2", faults.Load())
	}
}

func TestLegacyBarrierPanicsOnFault(t *testing.T) {
	w, _ := NewWorld(testMachine(), 2)
	err := w.Run(func(p *PE) {
		if p.ID == 1 {
			p.Fail()
		}
		p.Barrier(0) // must panic (poisons world), not hang
	})
	if err == nil || !strings.Contains(err.Error(), "image fault") {
		t.Fatalf("want image-fault poison, got %v", err)
	}
}

func TestDeadlockGenuine(t *testing.T) {
	w, _ := NewWorld(testMachine(), 2)
	err := w.Run(func(p *PE) {
		// Both PEs wait on flags nobody will ever set: a real deadlock.
		p.WaitUntil64(int64(8*p.ID), func(v uint64) bool { return v != 0 })
	})
	if err == nil || !strings.Contains(err.Error(), "pgas: deadlock: all 2 alive PEs blocked") {
		t.Fatalf("want deadlock poison, got %v", err)
	}
}

func TestDeadlockNamesFailedPEs(t *testing.T) {
	w, _ := NewWorld(testMachine(), 2)
	err := w.Run(func(p *PE) {
		if p.ID == 1 {
			p.Fail()
		}
		// Wait forever on a flag only the dead PE would have set.
		p.WaitUntil64(0, func(v uint64) bool { return v != 0 })
	})
	if err == nil || !strings.Contains(err.Error(), "failed PEs [1]") {
		t.Fatalf("deadlock report should name the dead PE, got %v", err)
	}
}

func TestRepairWriteLandsInFailedPartition(t *testing.T) {
	w, _ := NewWorld(testMachine(), 2)
	err := w.Run(func(p *PE) {
		if p.ID == 1 {
			p.Fail()
		}
		p.WaitUntilStat(128, 1, func([]byte) bool { return w.Failed(1) }, nil)
		w.RepairWrite(1, 0, []byte{0xCC}, 42)
		if v, ts := w.ReadUint64Ts(1, 0); byte(v) != 0xCC || ts != 42 {
			t.Errorf("repair write: got v=%#x ts=%v, want 0xCC at 42", byte(v), ts)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReadUint64TsDecodesLikeReadUint64: the forensic read decodes its word
// in the byte order every other word access uses (the host's), so a qnode
// read out of a dead PE's partition is the value the atomics stored there.
func TestReadUint64TsDecodesLikeReadUint64(t *testing.T) {
	w := testWorld(t, 2)
	w.Write(1, 16, []byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}, 7)
	want := w.ReadUint64(1, 16)
	if got, ts := w.ReadUint64Ts(1, 16); got != want || ts != 7 {
		t.Fatalf("ReadUint64Ts = %#x at t=%v, ReadUint64 = %#x (written at t=7)", got, ts, want)
	}
	if old, _ := w.rmw64(1, 16, OpAdd, 0, 0, 8); old != want {
		t.Fatalf("rmw64 reads %#x, ReadUint64 %#x", old, want)
	}
}

func TestStatAtomicsOnFailedTarget(t *testing.T) {
	w, _ := NewWorld(testMachine(), 2)
	err := w.Run(func(p *PE) {
		if p.ID == 1 {
			p.world.WriteUint64(1, 0, 77, 0)
			p.Fail()
		}
		p.WaitUntilStat(128, 1, func([]byte) bool { return w.Failed(1) }, nil)
		if old, ok := p.RMW64Stat(1, 0, OpSwap, 99, Price{}); ok || old != 77 {
			t.Errorf("RMW64Stat on dead PE: old=%d ok=%v, want 77,false", old, ok)
		}
		if old, ok := p.CompareSwap64Stat(1, 0, 77, 99, Price{}); ok || old != 77 {
			t.Errorf("CompareSwap64Stat on dead PE: old=%d ok=%v, want 77,false", old, ok)
		}
		if v := w.ReadUint64(1, 0); v != 77 {
			t.Errorf("stat atomics mutated frozen word: %d", v)
		}
		// Stat atomics on a live target behave exactly like the plain ones.
		if old, ok := p.RMW64Stat(0, 0, OpAdd, 5, Price{}); !ok || old != 0 {
			t.Errorf("RMW64Stat on live PE: old=%d ok=%v, want 0,true", old, ok)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitUntilStatOnEvent(t *testing.T) {
	w, _ := NewWorld(testMachine(), 2)
	err := w.Run(func(p *PE) {
		if p.ID == 1 {
			p.Barrier(0)
			return // stop → departure broadcast wakes PE 0's wait
		}
		p.Barrier(0)
		// onEvent fires on wake-ups, under the partition lock: it may only
		// inspect lock-free state (the fault queries), and returning
		// ErrWaitRecheck aborts the wait so the caller can run recovery logic
		// that does communicate.
		calls := 0
		_, err := p.WaitUntilStat(8, 8, func(b []byte) bool { return false }, func() error {
			calls++
			if w.Stopped(1) {
				return ErrWaitRecheck
			}
			return nil
		})
		if !errors.Is(err, ErrWaitRecheck) {
			t.Errorf("want ErrWaitRecheck, got %v", err)
		}
		if calls == 0 {
			t.Error("onEvent never ran")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultFreeWorldUnchanged(t *testing.T) {
	// With no failures, the stat queries are all negative and barriers carry
	// no error — the fault machinery must be invisible.
	w, _ := NewWorld(testMachine(), 4)
	err := w.Run(func(p *PE) {
		if err := p.BarrierTolerantDo(10, nil, nil, 0); err != nil {
			t.Errorf("fault-free barrier returned %v", err)
		}
		if w.AnyFailed() || len(w.FailedPEs()) != 0 {
			t.Error("fault-free world reports failures")
		}
		if !w.Alive(0) {
			t.Error("PE 0 is not alive")
		}
		// Hold every PE in the body until all have run their checks: a PE
		// whose body returns is marked stopped, which would legitimately
		// change Alive under the feet of a slower checker.
		if err := p.BarrierTolerantDo(20, nil, nil, 0); err != nil {
			t.Errorf("fault-free barrier returned %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
