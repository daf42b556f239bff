// Package pgas is the execution substrate for the PGAS libraries in this
// repository. It runs N processing elements (PEs) on goroutines, gives
// each a partitioned memory segment (the "symmetric segment"), and provides
// one-sided access to any PE's partition without the target's participation —
// the defining property of the PGAS model.
//
// pgas is deliberately cost-agnostic: it moves real bytes and tracks
// virtual-time causality (timestamps on writes, max-merge on waits), while
// the library layers above it (shmem, gasnet, mpi3) decide how many virtual
// nanoseconds each operation costs using a fabric.CostProfile.
package pgas

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cafshmem/internal/fabric"
)

// MaxSegmentBytes bounds each PE's partition. 2^36 matches the offset width
// of the packed remote pointers used by the CAF lock implementation (paper
// §IV-D: "36 bits for the offset of the qnode within the remote-accessible
// buffer space").
const MaxSegmentBytes = int64(1) << 36

// World is one SPMD execution: n PEs over a modelled machine.
type World struct {
	machine *fabric.Machine
	n       int
	// pes is the world's PE table, indexed by rank: one allocation for every
	// PE, which never moves, so a *PE into it is the PE's handle.
	pes     []PE
	barrier *barrier

	// heap is the world's symmetric heap (heap.go).
	heap heap

	// failed is the world poison error, written once under failMu; poisoned
	// is its lock-free "is set" flag, so the no-fault path of every wait
	// iteration is one atomic load and the mutex is taken only to read the
	// error once the flag is up.
	failMu   sync.Mutex
	failed   error
	poisoned atomic.Bool

	// NIC sharing (ActivePairs, asked on every RMA): each node holds perNode
	// of the job's PEs except the last, which starts at rank tailLo and holds
	// tailPEs; Options.ActivePairs puts every PE on a node of perNode.
	perNode, tailLo, tailPEs int

	// PE life-cycle state (see fault.go). states is read with atomic loads on
	// hot paths; transitions take stateMu. The counters back the fault-status
	// queries and the quiescence rule.
	stateMu    sync.Mutex
	states     []int32
	nFailed    atomic.Int32
	nStopped   atomic.Int32
	awake      atomic.Int32   // PE goroutines of the current Run neither returned nor asleep in PE.block
	exitedN    atomic.Int32   // PE goroutines of the current Run that returned
	watches    atomic.Int32   // registered watches, world-wide: what a fault fan-out consults before it visits anything
	wakeVisits atomic.Int64   // partitions the wake fan-outs have visited (wakeWatchers, poison)
	running    atomic.Bool    // a Run is in flight: Close is refused
	started    atomic.Int64   // runner goroutines the world's Runs started anew (Metrics.Started)
	runs       sync.WaitGroup // the current Run's PEs that have not yet finished
	closed     atomic.Bool    // Close was called: partition memory is gone, Run is refused

	// san is the runtime sanitizer, nil unless Options.Sanitize.
	san *sanitizer
	// plan is Options.FaultPlan, nil for none.
	plan *fabric.FaultPlan

	// dlv is the lossy-fabric reliability bookkeeping: receiver dedup
	// windows, per-link forensic counters, unreachable-link marks. See
	// delivery.go. Zero-cost until a reliable message is recorded.
	dlv delivery
}

// PE is one processing element. The goroutine running the PE's body is the
// only writer of Clock; all cross-PE access goes through the World's
// one-sided operations, which lock the target PE's partition.
type PE struct {
	ID    int
	Clock fabric.Clock
	world *World

	mu   sync.Mutex
	cond sync.Cond // the PE's own goroutine sleeps here, in block; L is &mu
	// seg holds the partition's bytes and, for small writes (flags, counters,
	// lock words), the latest visibility timestamp per 8-byte-aligned word, so
	// a WaitUntil that registers after the satisfying write still recovers its
	// causal timestamp. Large payload writes are not tracked (nothing waits on
	// them), keeping the bookkeeping O(1) per flag-sized write.
	seg segStore
	// watch is the PE's registered wait, on its own partition or another's. A
	// PE waits from its own goroutine only, so there is at most one, and its
	// record (with wordBuf, the gather scratch for a word that straddles a
	// page) is embedded here: a wait allocates nothing.
	watch   watch
	wordBuf [8]byte
	// waiters mirrors the watch with an atomic so cross-PE wake fan-outs can
	// skip PEs that wait on nothing without taking their locks; World.watches
	// is their sum. Updated only under mu; read lock-free, as one half of the
	// handshake wakeWatchers documents. remote counts other PEs' watches on
	// this partition, which its stores read under mu (unlockStore).
	waiters, remote atomic.Int32
	// asleep, guarded by mu: the PE's goroutine sleeps on cond (in a wait or in
	// the barrier) and is not counted in World.awake. sleeps counts the times
	// it did, wakes every wake delivered to it, asleep or not.
	asleep bool
	sleeps int64
	wakes  uint64
	// visAt is the issue core's per-message visibility-time list, reused from
	// call to call by the PE's own goroutine: WriteRuns does not retain it.
	visAt []float64
}

// addWatch registers the PE's watch over [off, off+n) of q's partition (and
// its waiter counts). Must hold p.mu.
func (p *PE) addWatch(q *PE, off, n int64) *watch {
	wt := &p.watch
	if wt.on != nil {
		panic(fmt.Sprintf("pgas: PE %d is already waiting: a PE waits from its own goroutine only", p.ID))
	}
	*wt = watch{on: q, off: off, n: n}
	p.waiters.Store(1)
	p.world.watches.Add(1)
	return wt
}

// removeWatch deregisters the PE's watch. Must hold p.mu.
func (p *PE) removeWatch() {
	p.watch = watch{}
	p.waiters.Store(0)
	p.world.watches.Add(-1)
}

// watch observes a byte range of on's partition during a wait (on is nil
// otherwise). Writers to the waiter's own partition that overlap the range
// record the virtual time their data became visible, and a waiter merges it
// into its clock when the awaited condition holds.
type watch struct {
	on     *PE
	off, n int64
	ts     float64
}

// NewWorld creates a world of n PEs on the given machine model.
func NewWorld(machine *fabric.Machine, n int) (*World, error) {
	return NewWorldOpts(machine, n, Options{})
}

// NewWorldOpts creates a world of n PEs with explicit options.
func NewWorldOpts(machine *fabric.Machine, n int, opts Options) (*World, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pgas: need at least 1 PE, got %d", n)
	}
	if machine == nil {
		return nil, fmt.Errorf("pgas: nil machine")
	}
	w := &World{
		machine: machine,
		n:       n,
		pes:     make([]PE, n),
		states:  make([]int32, n),
		perNode: 1, tailLo: n, // no node structure: nobody shares a NIC
		plan: opts.FaultPlan,
	}
	if opts.ActivePairs > 0 {
		w.perNode = opts.ActivePairs // tailLo is n: no PE is on the tail node
	} else if per := machine.CoresPerNode; per > 0 {
		// Block placement: the PEs on a node are a contiguous rank range.
		w.tailLo = (n - 1) / per * per
		w.perNode, w.tailPEs = per, n-w.tailLo
	}
	if opts.Sanitize {
		w.san = newSanitizer()
	}
	w.barrier = newBarrier(w, n, 0)
	for i := range w.pes {
		p := &w.pes[i]
		p.ID, p.world = i, w
		p.cond.L = &p.mu
		w.barrier.arena[i].p = p
	}
	return w, nil
}

// Run executes body once per PE, each on a runner goroutine of its own (see
// World.Run), and blocks until every PE returns. A panic in any PE poisons
// the world (waking all blocked PEs) and is reported as an error. The world
// is closed before Run returns.
func Run(machine *fabric.Machine, n int, body func(*PE)) error {
	w, err := NewWorld(machine, n)
	if err != nil {
		return err
	}
	defer w.Close()
	return w.Run(body)
}

// Run executes body on every PE of an already-constructed world, each on a
// runner goroutine of its own (engine.go): an idle one left by an earlier
// Run of any world, a new one only when none is idle. It starts nothing
// else, and before it returns every runner it used is idle again or gone.
//
// A Run never hangs on the substrate's own waits: when every PE goroutine
// that has not returned is asleep in a wait or the barrier, the world is
// poisoned at once with a report of what each one is blocked on (fault.go,
// "quiescence"). The rule counts, it does not time, so it rests on a
// contract: inside a Run only PE goroutines may satisfy a wait — a write from
// any other goroutine may arrive after the verdict. A PE blocked on something
// the substrate cannot see (a host channel, a sleep) counts as running. Waits
// issued outside a Run are never judged. A sanitized world's Run ends with the
// sanitizer's end-of-job checks, and its findings are the error of a Run that
// nothing else failed.
func (w *World) Run(body func(*PE)) error {
	if w.closed.Load() {
		return ErrClosed
	}
	w.exitedN.Store(0)
	w.awake.Store(int32(w.n))
	w.running.Store(true)
	defer w.running.Store(false)
	w.runs.Add(w.n)
	w.start(body)
	w.runs.Wait()
	if err := w.failedErr(); err != nil || w.san == nil {
		return err
	}
	return w.san.finalize(w)
}

// ErrClosed is what a closed world answers: Run returns it, and the one-sided
// memory operations panic with it.
var ErrClosed = errors.New("pgas: world is closed")

// part returns the target PE, whose partition the caller is about to access:
// its element of the PE table, an address computed, not a pointer loaded. A
// closed world has no partition memory left: silently reading zeros where
// data used to be would be the worst answer, so it panics.
func (w *World) part(target int) *PE {
	if w.closed.Load() {
		panic(ErrClosed)
	}
	return &w.pes[target]
}

// Close ends the world's life: every materialised page of every partition,
// record, bytes and timestamps, goes back to the process-wide free lists for
// the next world to use, Run is refused from now on, and any access to
// partition memory panics with ErrClosed. The owner of a world calls it once the last
// Run has returned and nothing will read the partitions again — the library
// Run functions do, after their finalisation; a caller that builds a world
// by hand and inspects it after Run closes it when done, or not at all (an
// unclosed world is merely garbage the collector reclaims without
// recycling). Counters (PageStats, LinkReports) stay readable. Idempotent.
// Closing a world whose Run is in flight is a bug and panics. Close has no
// goroutine to stop: every runner a Run used was idle again, on the process's
// stack for the next world, or gone before that Run returned.
func (w *World) Close() {
	if w.running.Load() {
		panic("pgas: Close of a world whose Run is in flight")
	}
	if w.closed.Swap(true) {
		return
	}
	for i := range w.pes {
		p := &w.pes[i]
		p.mu.Lock()
		p.seg.release()
		p.mu.Unlock()
	}
}

// PageStats is how much partition memory a world materialised, summed over
// its partitions: page records, the pages of them whose bytes materialised (a
// page that was only ever stored zeros or recorded on has none) and of those
// the ones whose bytes are still a 4 KiB window (segWindowSize; the others
// hold the full segPageSize), the timestamps of the 4 KiB granules recorded
// on, as packed records (every granule starts packed) and as dense blocks
// (the granules crowded past a packed record's tsPackedCap words), how many
// records, byte buffers (a widened page took two) and packed records were
// recycled from closed worlds, how much of it all was new memory, and the
// bytes cleared on handing out recycled memory: a packed record's mask and
// counts, a dense block whole, of a byte buffer only what its last owner
// dirtied and the first write does not cover (see segStore.takeBytes).
type PageStats struct {
	SegPages              int
	DataPages             int
	WindowPages           int
	PackedRecords         int
	TsPages               int
	RecycledSegPages      int
	RecycledDataPages     int
	RecycledPackedRecords int
	FreshBytes            int64
	ClearedBytes          int64
}

func (s PageStats) String() string {
	kib := (int64(s.DataPages-s.WindowPages)*segPageSize + int64(s.WindowPages)*segWindowSize +
		int64(s.PackedRecords)*tsPackedBytes + int64(s.TsPages)*tsBlockBytes) >> 10
	return fmt.Sprintf("%d seg pages (%d with bytes, %d of them windows) + %d packed ts records (%d recycled) + %d ts pages (%d KiB, %d KiB of it new memory), %d KiB cleared on hand-out",
		s.SegPages, s.DataPages, s.WindowPages, s.PackedRecords, s.RecycledPackedRecords, s.TsPages, kib, s.FreshBytes>>10, s.ClearedBytes>>10)
}

// PageStats sums the partitions' page counters. It takes each partition lock
// in turn, so during a Run it is a snapshot, not an instant; the counters
// survive Close.
func (w *World) PageStats() PageStats {
	var s PageStats
	for i := range w.pes {
		p := &w.pes[i]
		p.mu.Lock()
		g := &p.seg
		s.SegPages += g.materialised
		s.DataPages += g.dataMaterialised
		s.WindowPages += g.windows
		s.PackedRecords += g.packedMaterialised
		s.TsPages += g.tsMaterialised
		s.RecycledSegPages += g.materialised - g.fresh
		s.RecycledDataPages += g.dataRecycled
		s.RecycledPackedRecords += g.packedMaterialised - g.packedFresh
		s.FreshBytes += g.dataFreshBytes + int64(g.packedFresh)*tsPackedBytes + int64(g.tsFresh)*tsBlockBytes
		s.ClearedBytes += g.cleared
		p.mu.Unlock()
	}
	return s
}

// Metrics is what a world's synchronisation cost the host so far: how often a
// PE goroutine went to sleep (PE.block: in a wait or in the barrier), summed
// over the PEs, how many barrier generations were released — the host
// rendezvous, one per library barrier and one per collective allocation or
// release — and how many runner goroutines its Runs started anew, summed over
// the Runs (a PE handed to an idle runner counts nothing). Sleeps and Started
// follow the host schedule and what earlier worlds of the process left idle;
// Rendezvous is the program's while it runs (the last PEs to return may
// release one more, empty).
type Metrics struct {
	Sleeps     int64
	Rendezvous uint64
	Started    int64
}

func (m Metrics) String() string {
	return fmt.Sprintf("%d sleeps, %d rendezvous, %d runners started", m.Sleeps, m.Rendezvous, m.Started)
}

// Metrics sums the PEs' sleep counters, taking each partition lock in turn
// like PageStats, and reads the barrier's generation count.
func (w *World) Metrics() Metrics {
	m := Metrics{Started: w.started.Load()}
	for i := range w.pes {
		p := &w.pes[i]
		p.mu.Lock()
		m.Sleeps += p.sleeps
		p.mu.Unlock()
	}
	sh := &w.barrier.shards[0]
	sh.mu.Lock()
	m.Rendezvous = sh.gen
	sh.mu.Unlock()
	return m
}

// Machine returns the machine model this world runs on.
func (w *World) Machine() *fabric.Machine { return w.machine }

// NumPEs returns the number of processing elements.
func (w *World) NumPEs() int { return w.n }

// PE returns the processing element with the given rank.
func (w *World) PE(id int) *PE { return &w.pes[id] }

// ActivePairs returns the number of communicating PEs assumed to share the
// NIC of the given PE's node, for the contention model: Options.ActivePairs
// when set, else the job's PEs on that node.
func (w *World) ActivePairs(pe int) int {
	if pe >= w.tailLo {
		return w.tailPEs
	}
	return w.perNode
}

// poison records the world's first error and wakes everything that might be
// blocked so the process can unwind. Later calls change nothing and wake
// nobody: they are the echo of the first (every PE a poisoned wait or barrier
// panics in lands here), and a fan-out each would cost n² at scale.
func (w *World) poison(err error) {
	w.failMu.Lock()
	first := w.failed == nil
	if first {
		w.failed = err
		w.poisoned.Store(true)
	}
	w.failMu.Unlock()
	if !first {
		return
	}
	w.wakeVisits.Add(int64(w.n))
	w.barrier.poison()
	for i := range w.pes {
		w.pes[i].wakeFanout()
	}
}
