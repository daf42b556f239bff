// Package gasnet implements a GASNet-like communication system: a core API
// of active messages (short requests with a reply) and an extended API of
// one-sided put/get, over the pgas substrate and the fabric cost model.
// Segment regions come from the world's one symmetric heap through the
// collective Malloc and Free.
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
// tok identifies the source and gives access to atomics on target memory and
// the reply channel.
type Handler func(tok *Token, args []int64)

// World is one GASNet job.
type World struct {
	pw      *pgas.World
	prof    *fabric.CostProfile
	machine *fabric.Machine
	// cur and curErr are the outcome of the latest Malloc or Free, left by its
	// release action for every node to read as it wakes.
	cur    Seg
	curErr error

	handlerMu sync.RWMutex
	handlers  [MaxHandlers]Handler

	// eps is the job's endpoint table, indexed by rank: Attach initialises a
	// rank's element in place and hands out its address.
	eps []EP
}

// EP is a per-PE endpoint; all GASNet calls hang off it.
type EP struct {
	world *World
	p     *pgas.PE
	// blocking is the remote-visibility horizon, per destination, of the
	// blocking puts issued since the last sync: a stream set with no pipe, so
	// WaitSyncImage can complete one destination's without draining the rest.
	blocking fabric.NBIStreams
	// nic is the endpoint's injection pipe; nbi tracks in-flight
	// implicit-handle nonblocking ops per destination on it.
	nic fabric.NBINic
	nbi fabric.NBIStreams
	// tok and args are every active message's token and arguments: a
	// handler runs on the requester's goroutine, one at a time per endpoint.
	tok  Token
	args [MaxArgs]int64
	// amMu serialises handler execution on this endpoint's node, whoever
	// requests: GASNet guarantees handler atomicity with respect to other
	// handlers on the same node. It serves before the endpoint is attached.
	amMu sync.Mutex
}

// Config selects the modelled platform and conduit.
type Config struct {
	Machine *fabric.Machine
	Profile string
	// Options is the pgas world's fault plan, active pairs per node and
	// runtime sanitizer, as in shmem.Config.
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
		pw: pw, prof: prof, machine: cfg.Machine, eps: make([]EP, n),
	}, nil
}

// Attach returns the endpoint handle for a pgas PE of this world: the rank's
// element of the world's endpoint table, wired on the first call and the same
// handle on every later one.
func (w *World) Attach(p *pgas.PE) *EP {
	if p.World() != w.pw {
		panic("gasnet: Attach of a PE from another world")
	}
	ep := &w.eps[p.ID]
	if ep.p == nil {
		ep.world, ep.p = w, p
		ep.nbi = fabric.NewNBIStreams(&ep.nic)
	}
	return ep
}

// PgasWorld exposes the substrate (for layered runtimes).
func (w *World) PgasWorld() *pgas.World { return w.pw }

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

func (ep *EP) intra(target int) bool { return ep.world.machine.SameNode(ep.p.ID, target) }
func (ep *EP) pairs() int            { return ep.world.pw.ActivePairs(ep.p.ID) }

func (ep *EP) checkTarget(t int) {
	if t < 0 || t >= ep.Nodes() {
		panic(fmt.Sprintf("gasnet: node %d out of range [0,%d)", t, ep.Nodes()))
	}
}

// Barrier is the split-phase notify/wait barrier collapsed into one call
// (gasnet_barrier_notify + gasnet_barrier_wait), completing outstanding puts.
// A failed or stopped node is error termination; BarrierStat returns it.
func (ep *EP) Barrier() {
	ep.WaitSyncAll()
	ep.p.RecordCollective("Barrier")
	ep.p.Barrier(ep.world.barrierNs())
}

// BarrierStat is Barrier among the survivors, returning the fault
// (pgas.PE.BarrierTolerantDo).
func (ep *EP) BarrierStat() error { return ep.barrierStat(nil, 0) }

// barrierStat is BarrierStat whose rendezvous carries a release action, run
// once with the world and arg while every node is asleep in it (Malloc's).
// The barrier's fault stands for the drain's.
func (ep *EP) barrierStat(act pgas.ReleaseFunc, arg int64) error {
	_ = ep.WaitSyncAllStat()
	ep.p.RecordCollective("Barrier")
	w := ep.world
	return ep.p.BarrierTolerantDo(w.barrierNs(), act, w, arg)
}

// Malloc collectively reserves a symmetric segment region from the world's
// heap (pgas.World.Alloc): every node calls with the same size and receives
// the identical handle. It is one rendezvous, whose release action allocates,
// and the virtual time of the two barriers that used to publish the handle and
// close the call. A failed or stopped node is error termination; MallocStat
// returns it.
func (ep *EP) Malloc(size int64) Seg {
	seg, err := ep.MallocStat(size)
	if err != nil {
		panic(err)
	}
	return seg
}

// MallocStat is Malloc among the survivors, returning the allocator's error,
// else BarrierStat's fault.
func (ep *EP) MallocStat(size int64) (Seg, error) {
	w := ep.world
	ep.p.RecordCollective("Malloc", size)
	err := ep.barrierStat(mallocRelease, size)
	cost := w.barrierNs()
	for range 2 {
		_ = ep.WaitSyncAllStat()
		ep.p.Clock.Advance(cost)
	}
	if w.curErr != nil {
		return Seg{}, w.curErr
	}
	return w.cur, err
}

// mallocRelease is Malloc's release action (ctx is the World).
func mallocRelease(ctx any, size int64, _ float64) {
	w := ctx.(*World)
	off, err := w.pw.Alloc(size)
	w.cur, w.curErr = Seg{Off: off, Size: size}, err
}

// Free collectively returns a region Malloc reserved: a barrier whose
// rendezvous frees it (pgas.World.Free, which clears it on every alive node).
// Freeing what is not allocated panics on every node, as a failed or stopped
// node does.
func (ep *EP) Free(seg Seg) {
	ep.WaitSyncAll()
	ep.p.RecordCollective("Free", seg.Off)
	w := ep.world
	ep.p.BarrierDo(w.barrierNs(), freeRelease, w, seg.Off)
	if w.curErr != nil {
		panic(w.curErr)
	}
}

// freeRelease is Free's release action (ctx is the World).
func freeRelease(ctx any, off int64, _ float64) {
	w := ctx.(*World)
	w.curErr = w.pw.Free(off)
}

// barrierNs is the modelled cost of a barrier over the whole job.
func (w *World) barrierNs() float64 {
	n := w.pw.NumPEs()
	return w.prof.BarrierNs(n, w.machine.NodesFor(n))
}
