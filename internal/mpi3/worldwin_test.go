package mpi3

import (
	"testing"

	"cafshmem/internal/pgas"
)

// WorldWin spans the whole partition as one window (the DART-MPI idiom a
// PGAS runtime layered on MPI-3 RMA uses): process-local handle, one shared
// epoch for the job, offsets addressed absolutely.
func TestWorldWinSpansPartition(t *testing.T) {
	err := Run(cfg(), 2, func(pr *Proc) {
		win := pr.World().WorldWin()
		if win.Off() != 0 || win.Size() != pgas.MaxSegmentBytes {
			t.Errorf("WorldWin = [%d,+%d), want whole partition", win.Off(), win.Size())
		}
		if pr.World().WorldWin() != win {
			t.Error("WorldWin must be a singleton")
		}
		pr.LockAll(win)
		// The world window and an allocated window must not share an epoch
		// key: an epoch on one is not an epoch on the other.
		alloc := pr.WinAllocate(64)
		if alloc.Off() == win.Off() {
			t.Errorf("allocated window offset %d collides with the world window", alloc.Off())
		}
		if pr.Rank() == 0 {
			pr.Put(win, 1, alloc.Off(), []byte{42})
			pr.Flush(1, win)
		}
		pr.Barrier()
		if pr.Rank() == 1 {
			got := make([]byte, 1)
			pr.Get(win, 1, alloc.Off(), got)
			if got[0] != 42 {
				t.Errorf("world-window get = %d, want 42", got[0])
			}
		}
		pr.UnlockAll(win)
		pr.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAttachReturnsTheRanksHandle: a rank's handle is its element of the
// world's rank table — attaching the PE again gives the handle Run gave, and
// no two ranks share one.
func TestAttachReturnsTheRanksHandle(t *testing.T) {
	const n = 4
	var handles [n]*Proc
	err := Run(cfg(), n, func(pr *Proc) {
		if again := pr.World().Attach(pr.Pgas()); again != pr {
			t.Errorf("rank %d: attaching again gave another handle", pr.Rank())
		}
		handles[pr.Rank()] = pr
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range handles {
		for j, b := range handles[:i] {
			if a == b {
				t.Errorf("ranks %d and %d share a handle", j, i)
			}
		}
	}
}

// FetchOp generalises Fetch_and_op across the accumulate reductions;
// OpSwap is MPI_REPLACE (fetch old, store new).
func TestFetchOpFlavours(t *testing.T) {
	err := Run(cfg(), 2, func(pr *Proc) {
		win := pr.WinAllocate(8)
		pr.LockAll(win)
		if pr.Rank() == 0 {
			if old, _ := pr.FetchOp(win, 1, 0, pgas.OpSwap, 7); old != 0 {
				t.Errorf("replace fetched %d, want 0", old)
			}
			if old, _ := pr.FetchOp(win, 1, 0, pgas.OpAdd, 5); old != 7 {
				t.Errorf("sum fetched %d, want 7", old)
			}
			if old, _ := pr.FetchOp(win, 1, 0, pgas.OpAnd, 0b1001); old != 12 {
				t.Errorf("band fetched %d, want 12", old)
			}
			if old, _ := pr.FetchOp(win, 1, 0, pgas.OpOr, 0b0010); old != 8 {
				t.Errorf("bor fetched %d, want 8", old)
			}
			if old, _ := pr.FetchOp(win, 1, 0, pgas.OpXor, 0b1111); old != 10 {
				t.Errorf("bxor fetched %d, want 10", old)
			}
			if old, _ := pr.FetchOp(win, 1, 0, pgas.OpSwap, 0); old != 5 {
				t.Errorf("final replace fetched %d, want 5", old)
			}
		}
		pr.UnlockAll(win)
		pr.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
