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
// paper measures MPI-3 RMA losing to the one-sided libraries by (§III). MPI_Put
// takes one origin/target pair per call and this mapping ships no strided
// datatype fast path (DART-MPI likewise decomposes), so the funnel issues
// vectored and strided sections one call per run or element, like GASNet's.
type mpi3Backend struct {
	pr  *mpi3.Proc
	win *mpi3.Win // the whole-partition window, lock_all'd at construction
}

func newMPI3Backend(w *mpi3.World, pr *mpi3.Proc) *mpi3Backend {
	win := w.WorldWin()
	// The job-lifetime shared epoch: individual operations then need no
	// per-call lock/unlock, only flushes — the passive-target idiom every
	// PGAS-over-MPI runtime uses.
	pr.LockAll(win)
	return &mpi3Backend{pr: pr, win: win}
}

func (t *mpi3Backend) local() *pgas.PE { return t.pr.Pgas() }

// malloc allocates symmetric space by collectively creating a window
// (MPI_Win_allocate); the runtime addresses it through the whole-partition
// window, so only the offset matters.
func (t *mpi3Backend) malloc(size int64, _ bool) (int64, error) {
	return t.pr.WinAllocate(size).Off(), nil
}

// free is collective (MPI_Win_free) but returns no space to the allocator —
// window memory stays attached for the job's lifetime, like GASNet segments.
func (t *mpi3Backend) free(off, size int64) { t.pr.Barrier() }

func (t *mpi3Backend) rma(d *pgas.RMA, _ bool) {
	if len(d.Local) > 0 {
		t.pr.RMA(t.win, d)
	}
}

// atomic is the MPI_Fetch_and_op / MPI_Compare_and_swap accumulate family.
func (t *mpi3Backend) atomic(op pgas.AtomicOp, target int, off, a, b int64, _ bool) (int64, bool) {
	if op == opCAS {
		return t.pr.CompareAndSwap(t.win, target, off, a, b), true
	}
	return int64(t.pr.FetchOp(t.win, target, off, op, uint64(a))), true
}

// complete is MPI_Win_flush_all on the shared epoch.
func (t *mpi3Backend) complete(int, bool) error {
	t.pr.FlushAll(t.win)
	return nil
}

// barrier is an MPI_Win_fence epoch boundary: flush, synchronise, reopen.
func (t *mpi3Backend) barrier(bool) error {
	t.pr.Fence(t.win)
	return nil
}
