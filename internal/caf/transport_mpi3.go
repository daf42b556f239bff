package caf

import (
	"cafshmem/internal/mpi3"
	"cafshmem/internal/pgas"
)

// --- MPI-3 RMA backend (the DART-MPI mapping) ---

// mpi3Backend maps the CAF runtime onto MPI-3.0 one-sided communication,
// following the DART-MPI recipe (PAPERS.md): one window spans each rank's
// whole partition, every rank opens a shared passive-target epoch on it with
// MPI_Win_lock_all at startup and keeps it open for the job's lifetime, puts
// and gets run under that epoch, completion is MPI_Win_flush_all, and the
// barrier is an MPI_Win_fence epoch boundary. Atomics are the MPI_Fetch_and_op /
// MPI_Compare_and_swap accumulate family, which MPI guarantees atomic
// per-window — no AM emulation needed, unlike GASNet.
//
// Every RMA operation pays the profile's WindowSyncNs surcharge on top of
// the base injection/latency arithmetic — the per-op window bookkeeping the
// paper measures MPI-3 RMA losing to the one-sided libraries by (§III).
type mpi3Backend struct {
	pr  *mpi3.Proc
	win *mpi3.Win // the whole-partition window, lock_all'd at construction
}

// attach makes t, an element of Run's backend table, the backend over pr.
func (t *mpi3Backend) attach(pr *mpi3.Proc) {
	t.pr, t.win = pr, pr.World().WorldWin()
	// The job-lifetime shared epoch: individual operations then need no
	// per-call lock/unlock, only flushes — the passive-target idiom every
	// PGAS-over-MPI runtime uses.
	pr.LockAll(t.win)
}

func (t *mpi3Backend) local() *pgas.PE { return t.pr.Pgas() }

// malloc allocates symmetric space by collectively creating a window
// (MPI_Win_allocate); the runtime addresses it through the whole-partition
// window, so only the offset matters.
func (t *mpi3Backend) malloc(size int64, stat bool) (int64, error) {
	if stat {
		win, err := t.pr.WinAllocateStat(size)
		return win.Off(), err
	}
	return t.pr.WinAllocate(size).Off(), nil
}

// free collectively releases the window malloc created (MPI_Win_free), its
// memory back to the heap: one barrier, like MPI_Barrier.
func (t *mpi3Backend) free(off, size int64) { t.pr.WinFree(t.pr.World().WinAt(off)) }

func (t *mpi3Backend) rma(d *pgas.RMA, _ bool) {
	if len(d.Local) > 0 {
		t.pr.RMA(t.win, d)
	}
}

// atomic is the MPI_Fetch_and_op / MPI_Compare_and_swap accumulate family.
func (t *mpi3Backend) atomic(op pgas.AtomicOp, target int, off, a, b int64) (int64, bool) {
	if op == opCAS {
		return t.pr.CompareAndSwap(t.win, target, off, a, b)
	}
	old, ok := t.pr.FetchOp(t.win, target, off, op, uint64(a))
	return int64(old), ok
}

// complete is MPI_Win_flush_all on the shared epoch.
func (t *mpi3Backend) complete(_ int, stat bool) error {
	if stat {
		return t.pr.FlushAllStat(t.win)
	}
	t.pr.FlushAll(t.win)
	return nil
}

// barrier is an MPI_Win_fence epoch boundary: flush, synchronise, reopen.
func (t *mpi3Backend) barrier(stat bool) error {
	if stat {
		return t.pr.FenceStat(t.win)
	}
	t.pr.Fence(t.win)
	return nil
}
