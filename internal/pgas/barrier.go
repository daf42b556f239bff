package pgas

import (
	"sync"
	"sync/atomic"
)

// The world barrier is a sharded combining tree: PEs arrive at one of S leaf
// shards (each owning a contiguous PE-rank range, with its own mutex, arrival
// count and local max-arrival time), the last arriver at a leaf combines its
// (count, maxT) contribution upward to the root, and the root — which alone
// snapshots the fault status — releases generation-by-generation downward,
// each shard fanning out its own waiters. Because the release time is an
// order-independent maximum and the membership snapshot happens once at the
// root, tree aggregation is *exact*: the virtual times and fault statuses are
// bit-identical to the flat counting barrier it replaced (the flat barrier
// survives as the property-test oracle in barrier_prop_test.go), matching how
// real OpenSHMEM runtimes build shmem_barrier_all from log-depth combining
// without changing its semantics.
//
// What sharding buys at scale is host-side: a 10k–100k-image rendezvous no
// longer serialises every arrival through one global mutex, and the release
// walks S per-shard contiguous bWaiter arenas (values indexed by PE rank, so
// the fan-out is a sequential memory pass) instead of chasing a flat list of
// pointer records.
//
// The barrier is not a second kind of sleep: an arriving PE registers its
// arena record and then sleeps like any waiter, in PE.block on its own
// condition variable, until the record is done; a release (or poison) fills
// a shard's records under the shard lock and, only once it has dropped that
// lock, wakes their PEs one by one, from the highest rank down (barrier.wake).
//
// A rendezvous may carry a release action (ReleaseFunc): arrivals leave it
// with their shard, the report that completes a shard passes it to the root,
// and whoever releases the generation runs it once, under the root lock, after
// the last arrival and before the first wake — how a collective allocator
// allocates once for everybody (shmem/heap.go). The plain barrier pays one nil
// test for it.
//
// The participant count tracks the world's alive PEs: when a PE fails or
// stops it departs through its owning shard, and a rendezvous of all
// remaining PEs — or a departure that makes the current arrivals complete —
// re-checks completeness at the root and releases the group. Each release
// carries the fault status at release time, so callers can surface Fortran
// 2018's STAT_FAILED_IMAGE/STAT_STOPPED_IMAGE instead of hanging on a peer
// that will never arrive.

// defaultShardPEs is the leaf-shard size of every world's barrier:
// worlds up to this many PEs keep a single shard (the flat fast path, so the
// fixed 256-image suite and every small test see one mutex as before), and
// larger worlds grow one shard per 256 ranks.
const defaultShardPEs = 256

// barrier is the world rendezvous: a root over S leaf shards.
type barrier struct {
	w     *World
	chunk int // PE ranks per shard: rank r belongs to shards[r/chunk]
	// shards are the combining-tree leaves. Shard state is guarded by the
	// shard's own mutex; root state by root.mu. Lock order is root → shard →
	// partition; arrivals and departs take their shard lock first and drop it
	// before they take the root lock to report a shard they complete, so no
	// path ever holds a shard lock while acquiring the root.
	shards []bShard
	root   bRoot
	// arena holds the waiter records, one value per PE, indexed by rank —
	// shard s's waiters are arena[s.lo:s.hi], so a release fans out over
	// sequential memory instead of pointer-chasing an arrival-ordered list.
	arena []bWaiter
}

// ReleaseFunc is a rendezvous' release action, called with the context and
// argument the arrivals supplied (a collective's all supply the same; a static
// function and a pointer, so carrying one allocates nothing) and the release
// time, while every participant is asleep in the barrier. It holds the root
// lock: it may take partition locks (World.Touch), must not enter the barrier
// or wait, and must not panic — it reports through ctx.
type ReleaseFunc func(ctx any, arg int64, rel float64)

// action is a ReleaseFunc and what it is called on; the zero action is none.
type action struct {
	fn  ReleaseFunc
	ctx any
	arg int64
}

// bRoot is the top of the combining tree. done counts the shards that
// reported completion for the current generation; maxT accumulates the shard
// maxima as they report, act keeps a release action one of them carried.
type bRoot struct {
	mu   sync.Mutex
	done int
	maxT float64
	act  action
}

// bShard is one combining-tree leaf. alive is the shard's alive owned PEs,
// count the arrivals this generation; the shard is complete when they meet,
// and the PE (or departer) that makes them meet reports the shard's maxT
// upward exactly once per generation (the reported flag), with the release
// action an arrival left in act, if one did. gen counts the releases, for the
// deadlock report; a poisoned shard turns arrivals away.
type bShard struct {
	mu       sync.Mutex
	lo, hi   int // owned PE rank range [lo, hi)
	alive    int
	count    int
	maxT     float64
	act      action
	reported bool
	gen      uint64
	poisoned bool
}

// bWaiter is a PE's reusable barrier-wait record, one arena value per rank.
// waiting marks a registration for the current generation (guarded by the
// owning shard's mutex). The atomic done flag is stored after the result
// fields and before the waker takes the waiter's partition lock: observing
// done == true makes the fields safely readable, and a waiter that reads
// false under its partition lock is asleep before its wake can be delivered
// (the wake alone is not enough — any other wake could resume it first).
type bWaiter struct {
	p        *PE
	outT     float64
	outErr   error
	waiting  bool
	poisoned bool
	done     atomic.Bool
}

// newBarrier builds the shard tree for n PEs with shardsOpt leaf shards (0 =
// one per defaultShardPEs ranks; only tests pick others), clamped to [1, n];
// the chunking guarantees every shard starts non-empty.
func newBarrier(w *World, n, shardsOpt int) *barrier {
	s := shardsOpt
	if s <= 0 {
		s = (n + defaultShardPEs - 1) / defaultShardPEs
	}
	if s > n {
		s = n
	}
	chunk := (n + s - 1) / s
	s = (n + chunk - 1) / chunk
	b := &barrier{w: w, chunk: chunk, shards: make([]bShard, s), arena: make([]bWaiter, n)}
	for i := range b.shards {
		sh := &b.shards[i]
		sh.lo = i * chunk
		sh.hi = min(sh.lo+chunk, n)
		sh.alive = sh.hi - sh.lo
	}
	return b
}

// combine reports one completed leaf shard upward and, when it is the last
// outstanding shard and alive participants remain, releases the generation.
// self is the reporting PE when the report came from an arrival (so the
// release fan-out can skip waking the goroutine that is itself running the
// release, and a participant remains: self), nil when it came from a
// departure, after which the shards' alive counts say whether any does. Must
// be called with root.mu held.
func (b *barrier) combine(sMax float64, act action, self *PE) {
	r := &b.root
	if sMax > r.maxT {
		r.maxT = sMax
	}
	if act.fn != nil {
		r.act = act
	}
	r.done++
	if r.done == len(b.shards) && (self != nil || b.anyAlive()) {
		b.release(self)
	}
}

// anyAlive reports whether any shard has an alive owned PE left. It is asked
// once every shard has reported, so such a PE has arrived and sleeps in the
// barrier. It takes each shard lock in turn, below the root lock the caller
// holds.
func (b *barrier) anyAlive() bool {
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		alive := sh.alive
		sh.mu.Unlock()
		if alive > 0 {
			return true
		}
	}
	return false
}

// release completes the current generation. Must be called with root.mu held
// and every shard reported. The release time and status are order-independent
// (a max and a membership snapshot taken once here at the root), so which
// participant happens to report last — a scheduling accident — cannot change
// what anyone observes. The generation's release action runs first; the
// downward pass walks the shards from the last to the first, resetting each
// for the next generation and completing its waiters' records under the
// shard lock, then waking them with it dropped: a PE woken early that arrives
// again takes the shard lock without queueing behind the rest of the fan-out.
// The wakes stay under root.mu, so no next generation releases before they end.
func (b *barrier) release(self *PE) {
	r := &b.root
	outT := r.maxT
	outErr := b.w.imageFaultErr()
	r.maxT = 0
	r.done = 0
	if act := r.act; act.fn != nil {
		r.act = action{}
		act.fn(act.ctx, act.arg, outT)
	}
	for i := len(b.shards) - 1; i >= 0; i-- {
		sh := &b.shards[i]
		sh.mu.Lock()
		sh.count = 0
		sh.maxT = 0
		sh.act = action{}
		// A shard with no alive owners left has nobody to report it next
		// generation; it is pre-reported here so the root's completeness
		// count stays exact.
		sh.reported = sh.alive == 0
		if sh.reported {
			r.done++
		}
		sh.gen++
		b.complete(sh, outT, outErr, false)
		sh.mu.Unlock()
		b.wake(sh, self)
	}
}

// complete ends the wait of every PE registered at the shard — a release, or
// with poisoned set the unwinding of a poisoned world: a sequential pass over
// the shard's arena slice that fills each waiting record, result fields first
// and then the done flag that publishes them. Must be called with sh.mu held,
// so registration cannot race the walk; the wakes follow, with it dropped.
func (b *barrier) complete(sh *bShard, outT float64, outErr error, poisoned bool) {
	arena := b.arena[sh.lo:sh.hi]
	for i := range arena {
		bw := &arena[i]
		if !bw.waiting {
			continue
		}
		bw.waiting = false
		bw.outT, bw.outErr, bw.poisoned = outT, outErr, poisoned
		bw.done.Store(true)
	}
}

// wake wakes the PEs of the shard whose records are done, highest rank first:
// the runtime's binomial trees send from rel to rel−mask, and a child runnable
// before its parent spares the parent a second park. self, the PE running a
// release, is running and gets no wake. The walk needs no list: a record
// complete filled is done until its PE arrives again, and a done record it did
// not fill (a departed PE's, or one a PE already read) costs a spurious wake,
// which no sleeper minds — block's callers re-check their condition.
func (b *barrier) wake(sh *bShard, self *PE) {
	arena := b.arena[sh.lo:sh.hi]
	for i := len(arena) - 1; i >= 0; i-- {
		if bw := &arena[i]; bw.p != self && bw.done.Load() {
			bw.p.wakeFanout()
		}
	}
}

// await blocks until every alive participant has called it, then returns the
// maximum arriveT across the group and the fault status at release time (nil
// when every PE was alive). p identifies the arriving PE: it selects the
// owning shard and its arena record. act is the release action the arrival
// carries, or none.
func (b *barrier) await(p *PE, arriveT float64, act action) (float64, error) {
	sh := &b.shards[p.ID/b.chunk]
	sh.mu.Lock()
	if sh.poisoned {
		sh.mu.Unlock()
		panic("pgas: barrier poisoned (another PE failed)")
	}
	if arriveT > sh.maxT {
		sh.maxT = arriveT
	}
	if act.fn != nil {
		sh.act = act
	}
	sh.count++
	// Register the arena record before reporting upward — once the shard is
	// reported, any other shard's report can trigger the release, and a record
	// registered late would miss its fill.
	bw := &b.arena[p.ID]
	bw.waiting = true
	bw.done.Store(false)
	complete := sh.count == sh.alive && !sh.reported
	var sMax float64
	if complete {
		sh.reported = true
		sMax, act = sh.maxT, sh.act
	}
	sh.mu.Unlock()
	if complete {
		b.root.mu.Lock()
		b.combine(sMax, act, p)
		b.root.mu.Unlock()
	}
	// Sleep until the releaser (or a poison) completes the record. If this PE
	// ran the release itself, done is already set.
	p.mu.Lock()
	for !bw.done.Load() {
		p.block()
	}
	p.mu.Unlock()
	if bw.poisoned {
		panic("pgas: barrier poisoned (another PE failed)")
	}
	return bw.outT, bw.outErr
}

// depart removes a participant (PE failure or stop), routed through its
// owning shard. If the shard's remaining arrivals now form its complete
// alive group, the departure reports it upward and the root re-checks whole-
// world completeness — a departure mid-rendezvous is exactly the condition
// the release status exists to report. Any other departure takes no lock
// but its shard's.
func (b *barrier) depart(id int) {
	sh := &b.shards[id/b.chunk]
	sh.mu.Lock()
	sh.alive--
	complete := !sh.reported && sh.count == sh.alive
	var sMax float64
	var act action
	if complete {
		sh.reported = true
		sMax, act = sh.maxT, sh.act
	}
	sh.mu.Unlock()
	if !complete {
		return
	}
	b.root.mu.Lock()
	b.combine(sMax, act, nil)
	b.root.mu.Unlock()
}

// poison marks every shard poisoned and wakes all registered waiters so the
// world can unwind.
func (b *barrier) poison() {
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		sh.poisoned = true
		b.complete(sh, 0, nil, true)
		sh.mu.Unlock()
		b.wake(sh, nil)
	}
}

// Barrier is a library's barrier: rendezvous at the PE's clock, then advance
// it to the release time plus costNs. If the rendezvous involved failed or
// stopped images each survivor panics with the *ImageFault (error
// termination).
func (p *PE) Barrier(costNs float64) { p.BarrierDo(costNs, nil, nil, 0) }

// BarrierDo is Barrier whose rendezvous carries a release action, as
// BarrierTolerantDo's does: a collective free that charges one barrier.
func (p *PE) BarrierDo(costNs float64, fn ReleaseFunc, ctx any, arg int64) {
	if err := p.rendezvous(costNs, action{fn, ctx, arg}); err != nil {
		panic(err)
	}
}

// BarrierTolerantDo is Barrier with STAT semantics (SYNC ALL with STAT=),
// whose rendezvous carries a release action, the same from every
// participant; a nil fn is none. The fault is returned, with the links given
// up so far folded in (World.withGivenUp).
func (p *PE) BarrierTolerantDo(costNs float64, fn ReleaseFunc, ctx any, arg int64) error {
	return p.world.withGivenUp(p.rendezvous(costNs, action{fn, ctx, arg}))
}

// rendezvous is the two barriers' common arithmetic.
func (p *PE) rendezvous(costNs float64, act action) error {
	rel, err := p.world.barrier.await(p, p.Clock.Now(), act)
	p.Clock.MergeAtLeast(rel)
	p.Clock.Advance(costNs)
	return err
}
