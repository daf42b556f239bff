package caf

import (
	"cafshmem/internal/fabric"
	"cafshmem/internal/mpi3"
	"cafshmem/internal/pgas"
)

// --- MPI-3 RMA transport (the DART-MPI mapping) ---

// mpi3Transport maps the CAF runtime onto MPI-3.0 one-sided communication,
// following the DART-MPI recipe (PAPERS.md): one window spans each rank's
// whole partition, every rank opens a shared passive-target epoch on it with
// MPI_Win_lock_all at startup and keeps it open for the job's lifetime, puts
// and gets run under that epoch, Quiet is MPI_Win_flush_all, and Barrier is
// an MPI_Win_fence epoch boundary. Atomics are the MPI_Fetch_and_op /
// MPI_Compare_and_swap accumulate family, which MPI guarantees atomic
// per-window — no AM emulation needed, unlike GASNet.
//
// Every RMA operation pays the profile's WindowSyncNs surcharge on top of
// the base injection/latency arithmetic — the per-op window bookkeeping the
// paper measures MPI-3 RMA losing to the one-sided libraries by (§III).
type mpi3Transport struct {
	pr  *mpi3.Proc
	win *mpi3.Win // the whole-partition window, lock_all'd at construction
}

func newMPI3Transport(w *mpi3.World, pr *mpi3.Proc) *mpi3Transport {
	win := w.WorldWin()
	// The job-lifetime shared epoch: individual operations then need no
	// per-call lock/unlock, only flushes — the passive-target idiom every
	// PGAS-over-MPI runtime uses.
	pr.LockAll(win)
	return &mpi3Transport{pr: pr, win: win}
}

func (t *mpi3Transport) Name() string { return "mpi3/" + t.pr.World().Profile().Name }
func (t *mpi3Transport) PE() int      { return t.pr.Rank() }
func (t *mpi3Transport) NPEs() int    { return t.pr.Size() }

// Malloc allocates symmetric space by collectively creating a window
// (MPI_Win_allocate); the runtime addresses it through the whole-partition
// window, so only the offset matters.
func (t *mpi3Transport) Malloc(size int64) int64 { return t.pr.WinAllocate(size).Off() }

// Free is collective (MPI_Win_free) but returns no space to the allocator —
// window memory stays attached for the job's lifetime, like GASNet segments.
func (t *mpi3Transport) Free(off, size int64) { t.pr.Barrier() }

func (t *mpi3Transport) pgasPE() *pgas.PE { return t.pr.Pgas() }

func (t *mpi3Transport) PutMem(target int, off int64, data []byte) {
	if len(data) == 0 {
		return
	}
	t.pr.Put(t.win, target, off, data)
}

func (t *mpi3Transport) GetMem(target int, off int64, dst []byte) {
	if len(dst) == 0 {
		return
	}
	t.pr.Get(t.win, target, off, dst)
}

// PutMemV / GetMemV: MPI_Put takes one origin/target pair per call; a
// vectored section becomes one call per run (a datatype would batch the
// host-side walk but not the modelled per-run cost, which is what the
// Transport contract fixes at len(offs) individual calls).
func (t *mpi3Transport) PutMemV(target int, offs []int64, runBytes int, src []byte) {
	for i, off := range offs {
		t.pr.Put(t.win, target, off, src[i*runBytes:(i+1)*runBytes])
	}
}

func (t *mpi3Transport) GetMemV(target int, offs []int64, runBytes int, dst []byte) {
	for i, off := range offs {
		t.pr.Get(t.win, target, off, dst[i*runBytes:(i+1)*runBytes])
	}
}

// PutStrided1D: this mapping ships no strided datatype fast path (DART-MPI
// likewise decomposes); one MPI_Put per element, like the GASNet backend.
func (t *mpi3Transport) PutStrided1D(target int, off, strideBytes int64, elemSize int, src []byte) {
	for k := 0; k*elemSize < len(src); k++ {
		t.pr.Put(t.win, target, off+int64(k)*strideBytes, src[k*elemSize:(k+1)*elemSize])
	}
}

func (t *mpi3Transport) GetStrided1D(target int, off, strideBytes int64, elemSize int, dst []byte) {
	for k := 0; k*elemSize < len(dst); k++ {
		t.pr.Get(t.win, target, off+int64(k)*strideBytes, dst[k*elemSize:(k+1)*elemSize])
	}
}

// Quiet completes all outstanding RMA on the shared epoch
// (MPI_Win_flush_all).
func (t *mpi3Transport) Quiet() { t.pr.FlushAll(t.win) }

func (t *mpi3Transport) Swap64(target int, off int64, v int64) int64 {
	return int64(t.pr.FetchOp(t.win, target, off, pgas.OpSwap, uint64(v)))
}

func (t *mpi3Transport) CompareSwap64(target int, off int64, expected, desired int64) int64 {
	return t.pr.CompareAndSwap(t.win, target, off, expected, desired)
}

func (t *mpi3Transport) FetchAdd64(target int, off int64, v int64) int64 {
	return t.pr.FetchAndOp(t.win, target, off, v)
}

func (t *mpi3Transport) FetchAnd64(target int, off int64, v int64) int64 {
	return int64(t.pr.FetchOp(t.win, target, off, pgas.OpAnd, uint64(v)))
}

func (t *mpi3Transport) FetchOr64(target int, off int64, v int64) int64 {
	return int64(t.pr.FetchOp(t.win, target, off, pgas.OpOr, uint64(v)))
}

func (t *mpi3Transport) FetchXor64(target int, off int64, v int64) int64 {
	return int64(t.pr.FetchOp(t.win, target, off, pgas.OpXor, uint64(v)))
}

// MPI-3 exposes no shmem_ptr equivalent (MPI_Win_shared_query applies only
// to shared-memory windows, which this mapping does not use); direct access
// is never possible.
func (t *mpi3Transport) DirectWrite(int, int64, []byte) bool { return false }
func (t *mpi3Transport) DirectRead(int, int64, []byte) bool  { return false }

func (t *mpi3Transport) WaitLocal64(off int64, cmp pgas.Cmp, operand int64) {
	_, ts := t.pr.Pgas().WaitWord(off, cmp, operand)
	t.pr.Clock().MergeAtLeast(ts)
	t.pr.Clock().Advance(t.pr.World().Profile().OverheadNs)
}

// Barrier is an MPI_Win_fence epoch boundary: flush, synchronise, reopen.
func (t *mpi3Transport) Barrier() { t.pr.Fence(t.win) }

func (t *mpi3Transport) Clock() *fabric.Clock     { return t.pr.Clock() }
func (t *mpi3Transport) Machine() *fabric.Machine { return t.pr.World().PgasWorld().Machine() }
func (t *mpi3Transport) SameNode(a, b int) bool   { return t.Machine().SameNode(a, b) }
func (t *mpi3Transport) StridedMode() fabric.StridedMode {
	return t.pr.World().Profile().Strided
}
