// Package mpi3 implements the slice of MPI-3.0 one-sided communication the
// paper benchmarks OpenSHMEM against (§III, Figs 2-3): window allocation,
// MPI_Put/MPI_Get, passive-target synchronisation (lock/unlock/flush), fence,
// and the atomic accumulate operations.
//
// The modelled cost difference against OpenSHMEM/GASNet is the per-operation
// window-synchronisation bookkeeping (WindowSyncNs) plus generally higher
// injection overhead — matching the paper's observation that MPI-3 RMA
// latency trails both one-sided libraries on the tested systems.
package mpi3

import (
	"fmt"
	"sync"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// Config selects the modelled platform and MPI implementation.
type Config struct {
	Machine *fabric.Machine
	Profile string
	// Options is the pgas world's host-side tuning, as in shmem.Config.
	pgas.Options
}

// World is one MPI job.
type World struct {
	pw      *pgas.World
	prof    *fabric.CostProfile
	machine *fabric.Machine
	// winHeap is the next window's offset and curWin the latest window
	// allocated: only WinAllocate's release action touches the first, one at a
	// time, and every rank reads the second as it wakes from that rendezvous.
	winHeap int64
	curWin  *Win

	worldWin     *Win
	worldWinOnce sync.Once
}

// Proc is the per-rank handle.
type Proc struct {
	world  *World
	p      *pgas.PE
	epochs map[int64]*epoch
}

// Run launches an n-rank MPI job and executes body once per rank.
func Run(cfg Config, n int, body func(*Proc)) error {
	w, err := NewWorld(cfg, n)
	if err != nil {
		return err
	}
	defer w.pw.Close()
	return w.pw.Run(func(p *pgas.PE) { body(&Proc{world: w, p: p}) })
}

// NewWorld builds job state without launching ranks (for layered harnesses,
// which close PgasWorld() after their last Run).
func NewWorld(cfg Config, n int) (*World, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("mpi3: config needs a machine model")
	}
	prof, err := cfg.Machine.Profile(cfg.Profile)
	if err != nil {
		return nil, err
	}
	pw, err := pgas.NewWorldOpts(cfg.Machine, n, cfg.Options)
	if err != nil {
		return nil, err
	}
	return &World{pw: pw, prof: prof, machine: cfg.Machine, winHeap: 64}, nil
}

// Attach creates the rank handle for a pgas PE (for layered harnesses).
func (w *World) Attach(p *pgas.PE) *Proc { return &Proc{world: w, p: p} }

// PgasWorld exposes the underlying substrate.
func (w *World) PgasWorld() *pgas.World { return w.pw }

// Profile exposes the resolved cost profile (for layered harnesses that
// reason about the modelled WindowSyncNs surcharge).
func (w *World) Profile() *fabric.CostProfile { return w.prof }

// WorldWin returns the window spanning each rank's entire partition. It is
// what a PGAS runtime layered over MPI-3 RMA (DART-MPI style) uses: one
// MPI_Win_create over the whole symmetric heap at startup, so coarray puts
// and gets never re-negotiate window handles. The handle is a process-local
// singleton — no collective call, no clock cost — because the window covers
// memory the job already owns; epoch discipline still applies per rank.
func (w *World) WorldWin() *Win {
	w.worldWinOnce.Do(func() {
		w.worldWin = &Win{world: w, off: 0, size: pgas.MaxSegmentBytes}
	})
	return w.worldWin
}

// Pgas exposes the rank's underlying PE (for layered harnesses that manage
// their own heap or local stores alongside the MPI windows).
func (pr *Proc) Pgas() *pgas.PE { return pr.p }

// World returns the job this rank belongs to.
func (pr *Proc) World() *World { return pr.world }

// Rank returns the calling process's rank (MPI_Comm_rank).
func (pr *Proc) Rank() int { return pr.p.ID }

// Size returns the job size (MPI_Comm_size).
func (pr *Proc) Size() int { return pr.world.pw.NumPEs() }

// Clock exposes the virtual clock for harness measurement.
func (pr *Proc) Clock() *fabric.Clock { return &pr.p.Clock }

// Barrier is MPI_Barrier.
func (pr *Proc) Barrier() { pr.p.Barrier(pr.world.barrierNs()) }

// barrierNs is the modelled cost of MPI_Barrier over the whole job.
func (w *World) barrierNs() float64 {
	n := w.pw.NumPEs()
	return w.prof.BarrierNs(n, w.machine.NodesFor(n))
}

func (pr *Proc) intra(t int) bool { return pr.world.machine.SameNode(pr.p.ID, t) }
func (pr *Proc) pairs() int       { return pr.world.pw.ActivePairs(pr.p.ID) }

// LockKind is the MPI_Win_lock type.
type LockKind int

const (
	LockShared LockKind = iota
	LockExclusive
)

// Win is an RMA window: a per-rank region exposed for one-sided access.
type Win struct {
	world *World
	off   int64
	size  int64

	exclMu sync.Mutex // backs MPI_LOCK_EXCLUSIVE
}

// epoch tracks this rank's access epoch on a window. pending is the horizon of
// its puts, a stream set with no pipe: a flush to any target completes it all.
type epoch struct {
	targets  map[int]bool
	all      bool
	pending  fabric.NBIStreams
	heldExcl []int
}

// WinAllocate collectively creates a window of size bytes per rank
// (MPI_Win_allocate). Every rank must call it; all receive the same handle.
// It is one rendezvous, whose release action creates the window, and the
// virtual time of the two barriers that used to publish the handle and close
// the call (the protocol is shmem's, see its heap.go).
func (pr *Proc) WinAllocate(size int64) *Win {
	if size < 0 {
		panic("mpi3: negative window size")
	}
	w := pr.world
	cost := w.barrierNs()
	if err := pr.p.BarrierTolerantDo(cost, winAllocRelease, w, size); err != nil {
		panic(err)
	}
	pr.p.Clock.Advance(cost)
	pr.p.Clock.Advance(cost)
	return w.curWin
}

// winAllocRelease is WinAllocate's release action (pgas.ReleaseFunc; ctx is
// the World).
func winAllocRelease(ctx any, size int64, _ float64) {
	w := ctx.(*World)
	w.curWin = &Win{world: w, off: w.winHeap, size: size}
	w.winHeap += (size + 63) &^ 63
}

// Off returns the window's base offset within each rank's partition (the
// simulator's stand-in for the window base address MPI_Win_allocate returns).
func (win *Win) Off() int64 { return win.off }

// Size returns the window's per-rank extent in bytes.
func (win *Win) Size() int64 { return win.size }

// epochs are tracked per (proc, win) pair in a per-proc map.
var epochKey = func(win *Win) int64 { return win.off }

func (pr *Proc) epochFor(win *Win, create bool) *epoch {
	if pr.epochs == nil {
		if !create {
			return nil
		}
		pr.epochs = map[int64]*epoch{}
	}
	e := pr.epochs[epochKey(win)]
	if e == nil && create {
		e = &epoch{targets: map[int]bool{}}
		pr.epochs[epochKey(win)] = e
	}
	return e
}
