// Package mpi3 implements the slice of MPI-3.0 one-sided communication the
// paper benchmarks OpenSHMEM against (§III, Figs 2-3): window allocation,
// MPI_Put/MPI_Get, passive-target synchronisation (lock_all/unlock_all/flush),
// fence, the atomic accumulate operations, and window release (MPI_Win_free).
// Window memory comes from the world's symmetric heap (pgas.World.Alloc),
// which every library shares.
//
// The modelled cost difference against OpenSHMEM/GASNet is the per-operation
// window-synchronisation bookkeeping (WindowSyncNs) plus generally higher
// injection overhead — matching the paper's observation that MPI-3 RMA
// latency trails both one-sided libraries on the tested systems.
package mpi3

import (
	"fmt"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// Config selects the modelled platform and MPI implementation.
type Config struct {
	Machine *fabric.Machine
	Profile string
	// Options is the pgas world's fault plan, active pairs per node and
	// runtime sanitizer, as in shmem.Config.
	pgas.Options
}

// World is one MPI job.
type World struct {
	pw      *pgas.World
	prof    *fabric.CostProfile
	machine *fabric.Machine
	// curWin and curErr are the outcome of the latest WinAllocate or WinFree,
	// left by its release action for every rank to read as it wakes; wins
	// holds the windows not yet freed, by offset. Only the release actions
	// write them, one at a time.
	curWin *Win
	curErr error
	wins   map[int64]*Win

	// worldWin is WorldWin's window, built with the world.
	worldWin Win

	// procs is the job's rank table, indexed by rank: Attach initialises a
	// rank's element in place and hands out its address.
	procs []Proc
}

// Proc is the per-rank handle.
type Proc struct {
	world *World
	p     *pgas.PE
	// epoch0 is the rank's access epoch on the first window it locks or fences,
	// and more those on later windows, one allocation each: an epoch never
	// moves, because the sanitizer knows the puts booked on it by the address
	// of its pending set. A rank on one window — the whole-partition window of
	// a layered runtime — keeps its epoch in its handle.
	epoch0 epoch
	more   []*epoch
}

// Run launches an n-rank MPI job and executes body once per rank.
func Run(cfg Config, n int, body func(*Proc)) error {
	w, err := NewWorld(cfg, n)
	if err != nil {
		return err
	}
	defer w.pw.Close()
	return w.pw.Run(func(p *pgas.PE) { body(w.Attach(p)) })
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
	w := &World{pw: pw, prof: prof, machine: cfg.Machine, procs: make([]Proc, n)}
	w.worldWin = Win{world: w, size: pgas.MaxSegmentBytes}
	return w, nil
}

// Attach returns the rank handle for a pgas PE of this world (for layered
// harnesses): the rank's element of the world's rank table, initialised on the
// first call and the same handle on every later one.
func (w *World) Attach(p *pgas.PE) *Proc {
	if p.World() != w.pw {
		panic("mpi3: Attach of a PE from another world")
	}
	pr := &w.procs[p.ID]
	if pr.p == nil {
		pr.world, pr.p = w, p
	}
	return pr
}

// PgasWorld exposes the underlying substrate.
func (w *World) PgasWorld() *pgas.World { return w.pw }

// WorldWin returns the window spanning each rank's entire partition. It is
// what a PGAS runtime layered over MPI-3 RMA (DART-MPI style) uses: one
// MPI_Win_create over the whole symmetric heap at startup, so coarray puts
// and gets never re-negotiate window handles. The handle is made with the
// world, one per job — no collective call, no clock cost — because the window
// covers memory the job already owns; epoch discipline still applies per rank.
func (w *World) WorldWin() *Win { return &w.worldWin }

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
func (pr *Proc) Barrier() {
	pr.p.RecordCollective("Barrier")
	pr.p.Barrier(pr.world.barrierNs())
}

// barrierNs is the modelled cost of MPI_Barrier over the whole job.
func (w *World) barrierNs() float64 {
	n := w.pw.NumPEs()
	return w.prof.BarrierNs(n, w.machine.NodesFor(n))
}

func (pr *Proc) intra(t int) bool { return pr.world.machine.SameNode(pr.p.ID, t) }
func (pr *Proc) pairs() int       { return pr.world.pw.ActivePairs(pr.p.ID) }

// Win is an RMA window: a per-rank region exposed for one-sided access.
type Win struct {
	world *World
	off   int64
	size  int64
}

// epoch tracks this rank's access epoch on win (nil: no epoch). all says it is
// open toward every rank (lock_all or a fence); pending is the horizon of its
// puts, a stream set with no pipe: a flush to any target completes it all.
type epoch struct {
	win     *Win
	all     bool
	pending fabric.NBIStreams
}

// WinAllocate collectively creates a window of size bytes per rank
// (MPI_Win_allocate). Every rank must call it; all receive the same handle.
// It is one rendezvous, whose release action creates the window, and the
// virtual time of the two barriers that used to publish the handle and close
// the call (the protocol is shmem's Malloc). A failed or stopped rank is
// error termination; WinAllocateStat returns it, as it does the heap's error.
func (pr *Proc) WinAllocate(size int64) *Win {
	win, err := pr.WinAllocateStat(size)
	if err != nil {
		panic(err)
	}
	return win
}

// WinAllocateStat is WinAllocate among the ranks left, returning the heap's
// error (a size that is not positive, or exhaustion), else the fault
// (pgas.PE.BarrierTolerantDo).
func (pr *Proc) WinAllocateStat(size int64) (*Win, error) {
	pr.p.RecordCollective("WinAllocate", size)
	w := pr.world
	cost := w.barrierNs()
	err := pr.p.BarrierTolerantDo(cost, winAllocRelease, w, size)
	pr.p.Clock.Advance(cost)
	pr.p.Clock.Advance(cost)
	if w.curErr != nil {
		return nil, w.curErr
	}
	return w.curWin, err
}

// winAllocRelease is WinAllocate's release action (pgas.ReleaseFunc; ctx is
// the World).
func winAllocRelease(ctx any, size int64, _ float64) {
	w := ctx.(*World)
	off, err := w.pw.Alloc(size)
	w.curWin, w.curErr = &Win{world: w, off: off, size: size}, err
	if err == nil {
		if w.wins == nil {
			w.wins = map[int64]*Win{}
		}
		w.wins[off] = w.curWin
	}
}

// WinAt returns the window WinAllocate created at partition offset off, nil
// once it is freed: how a layered runtime that addresses memory by offset
// through WorldWin names a window to free.
func (w *World) WinAt(off int64) *Win { return w.wins[off] }

// WinFree collectively releases a window WinAllocate created (MPI_Win_free):
// a barrier whose rendezvous returns its memory to the heap, which clears it
// on every alive rank. Freeing what is not allocated — the whole-partition
// window, a window freed before — panics on every rank, as a failed or
// stopped rank does.
func (pr *Proc) WinFree(win *Win) {
	pr.p.RecordCollective("WinFree", win.off)
	w := pr.world
	pr.p.BarrierDo(w.barrierNs(), winFreeRelease, w, win.off)
	if w.curErr != nil {
		panic(w.curErr)
	}
}

// winFreeRelease is WinFree's release action (ctx is the World).
func winFreeRelease(ctx any, off int64, _ float64) {
	w := ctx.(*World)
	if w.curErr = w.pw.Free(off); w.curErr == nil {
		delete(w.wins, off)
	}
}

// Off returns the window's base offset within each rank's partition (the
// simulator's stand-in for the window base address MPI_Win_allocate returns).
func (win *Win) Off() int64 { return win.off }

// Size returns the window's per-rank extent in bytes.
func (win *Win) Size() int64 { return win.size }

// epochFor returns the rank's epoch on win; create makes it when there is
// none, else nil says there is none.
func (pr *Proc) epochFor(win *Win, create bool) *epoch {
	if e := &pr.epoch0; e.win == win {
		return e
	}
	for _, e := range pr.more {
		if e.win == win {
			return e
		}
	}
	if !create {
		return nil
	}
	e := &pr.epoch0
	if e.win != nil {
		e = new(epoch)
		pr.more = append(pr.more, e)
	}
	e.win = win
	return e
}
