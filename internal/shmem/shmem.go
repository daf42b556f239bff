// Package shmem implements an OpenSHMEM-1.x-style library on top of the pgas
// execution substrate and the fabric cost model.
//
// It provides the facilities the paper's CAF runtime is mapped onto
// (Table II): symmetric heap allocation (shmalloc/shfree), contiguous and
// 1-D strided one-sided put/get, remote atomics (swap, compare-swap,
// fetch-add, fetch-and/or/xor), point-to-point completion (fence/quiet) and
// wait-until, barriers, global logical locks, and shmem_ptr.
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
	// cur and curErr are the outcome of the latest Malloc or Free, left by its
	// release action for every PE to read as it wakes (heap.go).
	cur    Sym
	curErr error
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
	// nic is the injection pipe every completion stream of this PE — the
	// default context's and every created context's — serialises on.
	nic fabric.NBINic
	// def is the default context: the completion environment of every
	// PE-level call, nonblocking (its streams) and blocking (its horizon).
	// Quiet, QuietTarget and their stat forms are this context's.
	def Ctx
	// stage is the gather/scatter buffer of IPut/IGet with a strided local
	// operand (see staging).
	stage []byte
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
// of the world's PE table, wired on the first call — the default context's
// completion streams share the PE's injection pipe with any contexts created
// later — and the same handle on every later one. Layered runtimes use it;
// normal applications go through Run.
func (w *World) Attach(p *pgas.PE) *PE {
	if p.World() != w.pw {
		panic("shmem: Attach of a PE from another world")
	}
	pe := &w.pes[p.ID]
	if pe.p == nil {
		pe.world, pe.p = w, p
		pe.nodeLo, pe.nodeHi = w.machine.NodeRange(p.ID)
		pe.def = Ctx{pe: pe, nbi: fabric.NewNBIStreams(&pe.nic)}
	}
	return pe
}

// PgasWorld exposes the underlying substrate (for layered runtimes).
func (w *World) PgasWorld() *pgas.World { return w.pw }

// Profile returns the library cost profile this world is modelling.
func (w *World) Profile() *fabric.CostProfile { return w.prof }

// MyPE returns the calling PE's rank (shmem_my_pe).
func (pe *PE) MyPE() int { return pe.p.ID }

// NumPEs returns the job size (shmem_n_pes).
func (pe *PE) NumPEs() int { return pe.world.pw.NumPEs() }

// Clock exposes the PE's virtual clock for harness measurement.
func (pe *PE) Clock() *fabric.Clock { return &pe.p.Clock }

// World returns the job this PE belongs to.
func (pe *PE) World() *World { return pe.world }

// Pgas returns the underlying substrate PE (for layered runtimes).
func (pe *PE) Pgas() *pgas.PE { return pe.p }

func (pe *PE) intra(target int) bool {
	return pe.nodeLo <= target && target < pe.nodeHi
}

func (pe *PE) pairs() int {
	return pe.world.pw.ActivePairs(pe.p.ID)
}

// Ptr models shmem_ptr: it returns a directly-loadable snapshot of a remote
// PE's symmetric object when (and only when) the remote PE is on the same
// node, else nil. True shared-memory mapping is not possible across Go
// partitions without aliasing hazards, so the returned slice is a copy that
// costs only an intra-node cache transfer; callers that need to write must
// use Put. The paper lists exploiting shmem_ptr for intra-node load/store as
// future work (§VII).
func (pe *PE) Ptr(sym Sym, target int) []byte {
	pe.p.CheckHandle("shmem_ptr", sym.Off, sym.Size)
	if !pe.intra(target) {
		return nil
	}
	pe.p.CheckRead(target, sym.Off, sym.Size)
	dst := make([]byte, sym.Size)
	pe.world.pw.Read(target, sym.Off, dst)
	pe.p.Clock.Advance(pe.world.prof.IntraGapNsPerByte * float64(sym.Size))
	return dst
}
