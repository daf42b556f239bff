package mpi3

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

func cfg() Config {
	return Config{Machine: fabric.Stampede(), Profile: fabric.ProfMV2XMPI3}
}

func TestRunIdentity(t *testing.T) {
	err := Run(cfg(), 4, func(pr *Proc) {
		if pr.Size() != 4 || pr.Rank() < 0 || pr.Rank() >= 4 {
			panic("identity wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewWorld(Config{}, 1); err == nil {
		t.Fatal("missing machine should fail")
	}
	if _, err := NewWorld(Config{Machine: fabric.Stampede(), Profile: "x"}, 1); err == nil {
		t.Fatal("unknown profile should fail")
	}
}

func TestWinAllocateCollective(t *testing.T) {
	wins := make([]*Win, 3)
	err := Run(cfg(), 3, func(pr *Proc) {
		wins[pr.Rank()] = pr.WinAllocate(256)
	})
	if err != nil {
		t.Fatal(err)
	}
	if wins[0] != wins[1] || wins[1] != wins[2] {
		t.Fatal("WinAllocate must return the same window on all ranks")
	}
}

// WinAllocate takes its memory from the world's heap: a size past the
// segment is the heap's exhaustion error, not a window beyond its end.
func TestWinAllocateStatExhaustion(t *testing.T) {
	err := Run(cfg(), 2, func(pr *Proc) {
		win, err := pr.WinAllocateStat(pgas.MaxSegmentBytes)
		if win != nil || err == nil || !strings.Contains(err.Error(), "exhausted") {
			panic(fmt.Sprintf("WinAllocateStat(MaxSegmentBytes) = %v, %v; want the heap's exhaustion", win, err))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// WinFree returns a window's memory to the heap: the next window reuses it,
// reading zero, freeing twice panics on every rank, and under the sanitizer
// an access through the freed window is a bad handle and a window never freed
// a leak.
func TestWinFree(t *testing.T) {
	err := Run(cfg(), 2, func(pr *Proc) {
		a := pr.WinAllocate(64)
		pr.LockAll(a)
		pr.Put(a, 1-pr.Rank(), 0, []byte{7})
		pr.UnlockAll(a)
		pr.Barrier()
		pr.WinFree(a)
		b := pr.WinAllocate(64)
		pr.LockAll(b)
		var got [1]byte
		pr.Get(b, pr.Rank(), 0, got[:])
		pr.UnlockAll(b)
		if b.Off() != a.Off() || got[0] != 0 || pr.World().WinAt(b.Off()) != b {
			panic("freed window not reused, or not cleared")
		}
		pr.WinFree(b)
		pr.WinFree(b)
	})
	if err == nil || !strings.Contains(err.Error(), "free of unallocated offset") {
		t.Fatalf("want a double-free panic, got %v", err)
	}
	sanitized := cfg()
	sanitized.Sanitize = true
	err = Run(sanitized, 2, func(pr *Proc) {
		pr.WinAllocate(8) // never freed
		a := pr.WinAllocate(8)
		pr.WinFree(a)
		pr.LockAll(a)
		if pr.Rank() == 0 {
			pr.Put(a, 1, 0, []byte{1})
		}
		pr.UnlockAll(a)
		pr.Barrier()
	})
	if err == nil || strings.Count(err.Error(), "bad-handle") != 1 || !strings.Contains(err.Error(), "never freed") {
		t.Fatalf("want one bad-handle and one leak finding, got %v", err)
	}
}

func TestPassiveTargetPutGet(t *testing.T) {
	err := Run(cfg(), 3, func(pr *Proc) {
		win := pr.WinAllocate(64)
		if pr.Rank() == 0 {
			pr.LockAll(win)
			var b [8]byte
			binary.NativeEndian.PutUint64(b[:], 31337)
			pr.Put(win, 2, 16, b[:])
			pr.Flush(2, win)
			pr.UnlockAll(win)
		}
		pr.Barrier()
		if pr.Rank() == 1 {
			pr.LockAll(win)
			var b [8]byte
			pr.Get(win, 2, 16, b[:])
			if binary.NativeEndian.Uint64(b[:]) != 31337 {
				panic("get did not observe put")
			}
			pr.UnlockAll(win)
		}
		pr.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRMAOutsideEpochPanics(t *testing.T) {
	err := Run(cfg(), 2, func(pr *Proc) {
		win := pr.WinAllocate(8)
		if pr.Rank() == 0 {
			pr.Put(win, 1, 0, []byte{1}) // no Lock
		}
	})
	if err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("expected epoch violation, got %v", err)
	}
}

func TestPutBounds(t *testing.T) {
	err := Run(cfg(), 2, func(pr *Proc) {
		win := pr.WinAllocate(8)
		if pr.Rank() == 0 {
			pr.LockAll(win)
			pr.Put(win, 1, 4, []byte{1, 2, 3, 4, 5})
		}
	})
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("expected overflow, got %v", err)
	}
}

func TestLockAllFlushAll(t *testing.T) {
	err := Run(cfg(), 4, func(pr *Proc) {
		win := pr.WinAllocate(8 * 4)
		pr.LockAll(win)
		var b [8]byte
		binary.NativeEndian.PutUint64(b[:], uint64(pr.Rank()+1))
		for t := 0; t < pr.Size(); t++ {
			pr.Put(win, t, int64(pr.Rank())*8, b[:])
		}
		pr.FlushAll(win)
		pr.UnlockAll(win)
		pr.Barrier()
		pr.LockAll(win)
		for r := 0; r < pr.Size(); r++ {
			var g [8]byte
			pr.Get(win, pr.Rank(), int64(r)*8, g[:])
			if binary.NativeEndian.Uint64(g[:]) != uint64(r+1) {
				panic("flushed put missing")
			}
		}
		pr.UnlockAll(win)
		pr.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFenceEpochs(t *testing.T) {
	err := Run(cfg(), 2, func(pr *Proc) {
		win := pr.WinAllocate(8)
		pr.Fence(win)
		if pr.Rank() == 0 {
			var b [8]byte
			binary.NativeEndian.PutUint64(b[:], 5)
			pr.Put(win, 1, 0, b[:])
		}
		pr.Fence(win)
		if pr.Rank() == 1 {
			var b [8]byte
			pr.Get(win, 1, 0, b[:])
			if binary.NativeEndian.Uint64(b[:]) != 5 {
				panic("fence did not complete put")
			}
		}
		pr.Fence(win)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAtomics(t *testing.T) {
	err := Run(cfg(), 4, func(pr *Proc) {
		win := pr.WinAllocate(16)
		pr.LockAll(win)
		for i := 0; i < 10; i++ {
			pr.FetchOp(win, 0, 0, pgas.OpAdd, 1)
		}
		pr.FetchOp(win, 0, 8, pgas.OpAdd, uint64(pr.Rank()))
		pr.UnlockAll(win)
		pr.Barrier()
		if pr.Rank() == 0 {
			pr.LockAll(win)
			var b [8]byte
			pr.Get(win, 0, 0, b[:])
			if binary.NativeEndian.Uint64(b[:]) != 40 {
				panic("accumulate lost updates")
			}
			pr.UnlockAll(win)
		}
		pr.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompareAndSwap(t *testing.T) {
	err := Run(cfg(), 2, func(pr *Proc) {
		win := pr.WinAllocate(8)
		if pr.Rank() == 0 {
			pr.LockAll(win)
			if old, _ := pr.CompareAndSwap(win, 1, 0, 0, 9); old != 0 {
				panic("cas should succeed from 0")
			}
			if old, _ := pr.CompareAndSwap(win, 1, 0, 0, 11); old != 9 {
				panic("cas should fail against 9")
			}
			pr.UnlockAll(win)
		}
		pr.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMPIPutCostsMoreThanSHMEM(t *testing.T) {
	// Calibration guard for Fig 2: an 8-byte put+flush round under MPI-3 must
	// cost more virtual time than the equivalent shmem put+quiet.
	mpiProf := fabric.Stampede().MustProfile(fabric.ProfMV2XMPI3)
	shmProf := fabric.Stampede().MustProfile(fabric.ProfMV2XSHMEM)
	mpiCost := mpiProf.PutInjectNs(8, false, 1) + mpiProf.WindowSyncNs + mpiProf.DeliveryNs(false, 1)
	shmCost := shmProf.PutInjectNs(8, false, 1) + shmProf.DeliveryNs(false, 1)
	if mpiCost <= shmCost {
		t.Fatalf("MPI-3 small put (%v) should cost more than SHMEM (%v)", mpiCost, shmCost)
	}
}
