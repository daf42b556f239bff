package mpi3

import (
	"strings"
	"testing"

	"cafshmem/internal/pgas"
)

// Negative-path coverage for the MPI-3 RMA epoch discipline.

func TestUnlockWithoutLockPanics(t *testing.T) {
	err := Run(cfg(), 2, func(pr *Proc) {
		win := pr.WinAllocate(8)
		if pr.Rank() == 0 {
			pr.Unlock(1, win)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("expected epoch violation, got %v", err)
	}
}

func TestDoubleLockAllPanics(t *testing.T) {
	err := Run(cfg(), 1, func(pr *Proc) {
		win := pr.WinAllocate(8)
		pr.LockAll(win)
		pr.LockAll(win)
	})
	if err == nil {
		t.Fatal("double LockAll should panic")
	}
}

func TestUnlockAllWithoutLockAllPanics(t *testing.T) {
	err := Run(cfg(), 1, func(pr *Proc) {
		win := pr.WinAllocate(8)
		pr.UnlockAll(win)
	})
	if err == nil {
		t.Fatal("UnlockAll without LockAll should panic")
	}
}

func TestDoubleLockSameTargetPanics(t *testing.T) {
	err := Run(cfg(), 2, func(pr *Proc) {
		win := pr.WinAllocate(8)
		if pr.Rank() == 0 {
			pr.Lock(LockShared, 1, win)
			pr.Lock(LockShared, 1, win)
		}
	})
	if err == nil {
		t.Fatal("double Lock on one target should panic")
	}
}

func TestFlushAllOutsideEpochPanics(t *testing.T) {
	err := Run(cfg(), 1, func(pr *Proc) {
		win := pr.WinAllocate(8)
		pr.FlushAll(win)
	})
	if err == nil {
		t.Fatal("FlushAll outside an epoch should panic")
	}
}

func TestGetBounds(t *testing.T) {
	err := Run(cfg(), 2, func(pr *Proc) {
		win := pr.WinAllocate(8)
		if pr.Rank() == 0 {
			pr.LockAll(win)
			dst := make([]byte, 16)
			pr.Get(win, 1, 0, dst)
		}
	})
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("expected window overflow, got %v", err)
	}
}

func TestNegativeWindowPanics(t *testing.T) {
	err := Run(cfg(), 1, func(pr *Proc) {
		pr.WinAllocate(-8)
	})
	if err == nil {
		t.Fatal("negative window size should panic")
	}
}

func TestTargetRangeChecked(t *testing.T) {
	err := Run(cfg(), 2, func(pr *Proc) {
		win := pr.WinAllocate(8)
		pr.LockAll(win)
		if pr.Rank() == 0 {
			pr.Put(win, 7, 0, []byte{1})
		}
	})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("expected rank range panic, got %v", err)
	}
}

// TestErrorPathsTable sweeps the epoch-discipline and bounds violations the
// individual tests above leave uncovered: every RMA flavour outside an
// epoch, flush/unlock against the wrong target, negative offsets, atomics
// past either end of the window, and atomics on out-of-range ranks. Rank 0 triggers the violation inside a
// fresh 2-rank job; the panic must surface through Run as an error carrying
// the expected fragment.
func TestErrorPathsTable(t *testing.T) {
	cases := []struct {
		name string
		want string
		body func(pr *Proc, win *Win)
	}{
		{"get outside epoch", "outside an access epoch",
			func(pr *Proc, win *Win) { pr.Get(win, 1, 0, make([]byte, 4)) }},
		{"accumulate outside epoch", "outside an access epoch",
			func(pr *Proc, win *Win) { pr.Accumulate(win, 1, 0, 1) }},
		{"fetch-and-op outside epoch", "outside an access epoch",
			func(pr *Proc, win *Win) { pr.FetchAndOp(win, 1, 0, 1) }},
		{"fetch-op outside epoch", "outside an access epoch",
			func(pr *Proc, win *Win) { pr.FetchOp(win, 1, 0, pgas.OpSwap, 1) }},
		{"compare-and-swap outside epoch", "outside an access epoch",
			func(pr *Proc, win *Win) { pr.CompareAndSwap(win, 1, 0, 0, 1) }},
		{"flush outside epoch", "outside an access epoch",
			func(pr *Proc, win *Win) { pr.Flush(1, win) }},
		{"flush wrong target", "outside an access epoch",
			func(pr *Proc, win *Win) { pr.Lock(LockShared, 0, win); pr.Flush(1, win) }},
		{"unlock wrong target", "without an epoch",
			func(pr *Proc, win *Win) { pr.Lock(LockShared, 0, win); pr.Unlock(1, win) }},
		{"lock after lockall", "already holds an epoch",
			func(pr *Proc, win *Win) { pr.LockAll(win); pr.Lock(LockShared, 1, win) }},
		{"put negative offset", "overflows",
			func(pr *Proc, win *Win) { pr.LockAll(win); pr.Put(win, 1, -1, []byte{1}) }},
		{"get negative offset", "overflows",
			func(pr *Proc, win *Win) { pr.LockAll(win); pr.Get(win, 1, -1, make([]byte, 1)) }},
		{"put overflow", "overflows",
			func(pr *Proc, win *Win) { pr.LockAll(win); pr.Put(win, 1, 12, make([]byte, 8)) }},
		{"atomic past window", "overflows",
			func(pr *Proc, win *Win) { pr.LockAll(win); pr.FetchOp(win, 1, 16, pgas.OpAdd, 1) }},
		{"atomic negative offset", "overflows",
			func(pr *Proc, win *Win) { pr.LockAll(win); pr.Accumulate(win, 1, -8, 1) }},
		{"compare-and-swap straddling the window's end", "overflows",
			func(pr *Proc, win *Win) { pr.LockAll(win); pr.CompareAndSwap(win, 1, 12, 0, 1) }},
		{"lock target out of range", "out of range",
			func(pr *Proc, win *Win) { pr.Lock(LockShared, 5, win) }},
		{"atomic target out of range", "out of range",
			func(pr *Proc, win *Win) { pr.LockAll(win); pr.FetchOp(win, -1, 0, pgas.OpAdd, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Run(cfg(), 2, func(pr *Proc) {
				win := pr.WinAllocate(16)
				if pr.Rank() == 0 {
					tc.body(pr, win)
				}
			})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}
