// Package gasnet implements a GASNet-like communication system: a core API
// of active messages (short/medium/long requests with replies) and an
// extended API of one-sided put/get, over the pgas substrate and the fabric
// cost model.
//
// It exists as the comparator the paper measures OpenSHMEM against (§III,
// Figs 2-3) and as the alternative CAF transport (UHCAF-over-GASNet, Figs
// 6-10). Two modelled properties matter most: GASNet's large-message
// bandwidth trails the tuned SHMEM libraries, and it has no remote atomics —
// they must be emulated with active messages, paying handler dispatch on the
// target (§III: "Availability of certain features like remote atomics in
// OpenSHMEM also provides an edge over GASNet").
package gasnet

import (
	"fmt"
	"sync"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// MaxHandlers is the size of the AM handler table (GASNet allows 256).
const MaxHandlers = 256

// Handler is an active-message handler. It runs logically on the target PE:
// tok identifies the source and gives access to target memory and the reply
// channel; payload is the medium/long payload (nil for short requests).
type Handler func(tok *Token, payload []byte, args []int64)

// World is one GASNet job.
type World struct {
	pw      *pgas.World
	prof    *fabric.CostProfile
	machine *fabric.Machine
	heap    symHeap

	handlerMu sync.RWMutex
	handlers  [MaxHandlers]Handler

	// amMu serialises handler execution per target PE: GASNet guarantees
	// handler atomicity with respect to other handlers on the same node.
	amMu []sync.Mutex
}

// EP is a per-PE endpoint; all GASNet calls hang off it.
type EP struct {
	world *World
	p     *pgas.PE
	// blocking is the remote-visibility horizon, per destination, of the
	// blocking puts and fire-and-forget AMs issued since the last sync: a
	// stream set with no pipe, so WaitSyncImage can complete one
	// destination's without draining the rest.
	blocking fabric.NBIStreams
	// nic is the endpoint's injection pipe; nbi tracks in-flight
	// implicit-handle nonblocking ops (PutNBI/GetNBI) per destination on it.
	// Explicit-handle ops (PutNB/GetNB) reserve the same pipe but complete
	// through their SyncHandle, not the implicit set — gasnet_wait_syncnbi_all
	// never completes explicit handles: explicit holds such an op only from
	// its issue to the drain that makes its handle, inside one call.
	nic      fabric.NBINic
	nbi      fabric.NBIStreams
	explicit fabric.NBIStreams
}

// Config selects the modelled platform and conduit.
type Config struct {
	Machine *fabric.Machine
	Profile string
	// Options is the pgas world's host-side tuning, as in shmem.Config.
	pgas.Options
}

// Run launches an n-PE GASNet job (gasnet_init + attach + SPMD body).
func Run(cfg Config, n int, body func(*EP)) error {
	w, err := NewWorld(cfg, n)
	if err != nil {
		return err
	}
	defer w.pw.Close()
	return w.pw.Run(func(p *pgas.PE) { body(w.Attach(p)) })
}

// NewWorld builds job state without launching PEs (for layered runtimes,
// which close PgasWorld() after their last Run).
func NewWorld(cfg Config, n int) (*World, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("gasnet: config needs a machine model")
	}
	prof, err := cfg.Machine.Profile(cfg.Profile)
	if err != nil {
		return nil, err
	}
	pw, err := pgas.NewWorldOpts(cfg.Machine, n, cfg.Options)
	if err != nil {
		return nil, err
	}
	return &World{
		pw: pw, prof: prof, machine: cfg.Machine,
		heap: symHeap{brk: segAlign}, amMu: make([]sync.Mutex, n),
	}, nil
}

// Attach creates the endpoint handle for a pgas PE.
func (w *World) Attach(p *pgas.PE) *EP {
	ep := &EP{world: w, p: p}
	ep.nbi, ep.explicit = fabric.NewNBIStreams(&ep.nic), fabric.NewNBIStreams(&ep.nic)
	return ep
}

// PgasWorld exposes the substrate (for layered runtimes).
func (w *World) PgasWorld() *pgas.World { return w.pw }

// Profile returns the modelled conduit cost profile.
func (w *World) Profile() *fabric.CostProfile { return w.prof }

// RegisterHandler installs an AM handler at the given table index. GASNet
// requires registration to be identical on all PEs before communication; we
// enforce idempotent registration (same index may be set once).
func (w *World) RegisterHandler(idx int, h Handler) {
	if idx < 0 || idx >= MaxHandlers {
		panic(fmt.Sprintf("gasnet: handler index %d out of range", idx))
	}
	w.handlerMu.Lock()
	defer w.handlerMu.Unlock()
	if w.handlers[idx] != nil {
		panic(fmt.Sprintf("gasnet: handler %d already registered", idx))
	}
	w.handlers[idx] = h
}

func (w *World) handler(idx int) Handler {
	w.handlerMu.RLock()
	defer w.handlerMu.RUnlock()
	h := w.handlers[idx]
	if h == nil {
		panic(fmt.Sprintf("gasnet: no handler registered at index %d", idx))
	}
	return h
}

// MyNode returns the endpoint's rank (gasnet_mynode).
func (ep *EP) MyNode() int { return ep.p.ID }

// Nodes returns the job size (gasnet_nodes).
func (ep *EP) Nodes() int { return ep.world.pw.NumPEs() }

// Clock exposes the virtual clock for harness measurement.
func (ep *EP) Clock() *fabric.Clock { return &ep.p.Clock }

// Pgas returns the underlying substrate PE (for layered runtimes).
func (ep *EP) Pgas() *pgas.PE { return ep.p }

// World returns the job this endpoint belongs to.
func (ep *EP) World() *World { return ep.world }

func (ep *EP) intra(target int) bool { return ep.world.machine.SameNode(ep.p.ID, target) }
func (ep *EP) pairs() int            { return ep.world.pw.ActivePairs(ep.p.ID) }

func (ep *EP) checkTarget(t int) {
	if t < 0 || t >= ep.Nodes() {
		panic(fmt.Sprintf("gasnet: node %d out of range [0,%d)", t, ep.Nodes()))
	}
}

// Barrier is the split-phase notify/wait barrier collapsed into one call
// (gasnet_barrier_notify + gasnet_barrier_wait), completing outstanding puts.
func (ep *EP) Barrier() { ep.barrier(nil, 0) }

// barrier is Barrier whose rendezvous carries a release action, run once with
// the world and arg while every node is asleep in it (Malloc's).
func (ep *EP) barrier(act pgas.ReleaseFunc, arg int64) {
	ep.WaitSyncAll()
	w := ep.world
	if err := ep.p.BarrierTolerantDo(w.barrierNs(), act, w, arg); err != nil {
		panic(err)
	}
}

// barrierNs is the modelled cost of a barrier over the whole job.
func (w *World) barrierNs() float64 {
	n := w.pw.NumPEs()
	return w.prof.BarrierNs(n, w.machine.NodesFor(n))
}
