// Package shmem implements an OpenSHMEM-1.x-style library on top of the pgas
// execution substrate and the fabric cost model.
//
// It provides the facilities the paper's CAF runtime is mapped onto
// (Table II): symmetric heap allocation (shmalloc/shfree), contiguous and
// 1-D strided one-sided put/get, remote atomics (swap, compare-swap,
// fetch-add, fetch-and/or/xor), completion (quiet, per destination too),
// put-with-signal and wait-until, and barriers. It has no global locks
// (shmem_set_lock): the CAF runtime cannot use them for lock(lck[j]) and builds
// its own MCS lock from the atomics instead (§IV-D).
//
// A World is parameterised by a fabric.CostProfile, so the same code models
// Cray SHMEM (hardware iput, native atomics) and MVAPICH2-X SHMEM (iput as a
// loop of putmem) — the behavioural difference §V-B2 of the paper turns on.
package shmem

import (
	"fmt"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// World is one OpenSHMEM job: a set of PEs over a machine+library model.
type World struct {
	pw      *pgas.World
	prof    *fabric.CostProfile
	machine *fabric.Machine
	// pes is the job's PE table, indexed by rank: Attach initialises a rank's
	// element in place and hands out its address.
	pes []PE
}

// barrierNs is the modelled cost of shmem_barrier_all over the whole job.
func (w *World) barrierNs() float64 {
	n := w.pw.NumPEs()
	return w.prof.BarrierNs(n, w.machine.NodesFor(n))
}

// PE is the per-processing-element handle; all OpenSHMEM calls hang off it.
// It is valid only within the goroutine that received it from Run.
type PE struct {
	world *World
	p     *pgas.PE
	// nodeLo, nodeHi bound the ranks placed on this PE's node (intra).
	nodeLo, nodeHi int
	// nic is the PE's injection pipe. nbi tracks the in-flight nonblocking
	// ops, one completion stream per destination on the pipe: issue charges
	// only the injection overhead; Quiet drains all streams and merges the
	// latest completion, QuietTarget drains one destination's stream only.
	nic fabric.NBINic
	nbi fabric.NBIStreams
	// blocking is the latest remote-visibility time, per destination, of the
	// blocking puts issued since the last Quiet: the virtual analogue of the
	// NIC's outstanding operation queue, a stream set with no pipe.
	blocking fabric.NBIStreams
}

// Config selects the modelled platform and library implementation.
type Config struct {
	Machine *fabric.Machine
	Profile string // a profile name registered on Machine
	// Options is the pgas world's: its fault plan, active pairs per node and
	// runtime sanitizer (Sanitize). Virtual-time results depend on the first
	// two alone.
	pgas.Options
}

// Run launches an n-PE OpenSHMEM job and executes body once per PE
// (the analogue of start_pes/shmem_init in an SPMD launch). With
// Config.Sanitize set, sanitizer violations surface as the returned error
// after all PEs complete. The job's partition memory is recycled when Run
// returns (pgas.World.Close), so nothing may read the world afterwards.
func Run(cfg Config, n int, body func(*PE)) error {
	w, err := NewWorld(cfg, n)
	if err != nil {
		return err
	}
	defer w.pw.Close()
	return w.pw.Run(func(p *pgas.PE) { body(w.Attach(p)) })
}

// NewWorld builds the job state without launching PEs; used by layered
// runtimes (the CAF transport) that manage the SPMD launch themselves, and
// close PgasWorld() after their last Run.
func NewWorld(cfg Config, n int) (*World, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("shmem: config needs a machine model")
	}
	prof, err := cfg.Machine.Profile(cfg.Profile)
	if err != nil {
		return nil, err
	}
	pw, err := pgas.NewWorldOpts(cfg.Machine, n, cfg.Options)
	if err != nil {
		return nil, err
	}
	return &World{pw: pw, prof: prof, machine: cfg.Machine, pes: make([]PE, n)}, nil
}

// Attach returns the PE handle for a pgas PE of this world: the rank's element
// of the world's PE table, wired on the first call and the same handle on every
// later one. Layered runtimes use it; normal applications go through Run.
func (w *World) Attach(p *pgas.PE) *PE {
	if p.World() != w.pw {
		panic("shmem: Attach of a PE from another world")
	}
	pe := &w.pes[p.ID]
	if pe.p == nil {
		pe.world, pe.p = w, p
		pe.nodeLo, pe.nodeHi = w.machine.NodeRange(p.ID)
		pe.nbi = fabric.NewNBIStreams(&pe.nic)
	}
	return pe
}

// PgasWorld exposes the underlying substrate (for layered runtimes).
func (w *World) PgasWorld() *pgas.World { return w.pw }

// MyPE returns the calling PE's rank (shmem_my_pe).
func (pe *PE) MyPE() int { return pe.p.ID }

// NumPEs returns the job size (shmem_n_pes).
func (pe *PE) NumPEs() int { return pe.world.pw.NumPEs() }

// Clock exposes the PE's virtual clock for harness measurement.
func (pe *PE) Clock() *fabric.Clock { return &pe.p.Clock }

// Pgas returns the underlying substrate PE (for layered runtimes).
func (pe *PE) Pgas() *pgas.PE { return pe.p }

func (pe *PE) intra(target int) bool {
	return pe.nodeLo <= target && target < pe.nodeHi
}

func (pe *PE) pairs() int {
	return pe.world.pw.ActivePairs(pe.p.ID)
}
