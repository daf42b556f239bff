package pgas

// Execution engines. The substrate's virtual-time semantics are a pure
// function of (program, machine model, fault plan): every write carries a
// caller-computed visibility timestamp, every wait merges the maximum
// recorded timestamp over its range, and barriers aggregate an
// order-independent maximum. How PE bodies get host CPU time therefore
// cannot affect any modelled result of a program whose cross-image
// interactions are arbitrated by the modelled synchronisation — which makes
// the engine underneath replaceable, and lets the two implementations check
// each other bit-for-bit (the engine golden gate in check.sh). The one
// arbitration the substrate does NOT model is arrival order at a contended
// atomic word (RMW64 applies operations in host arrival order): a program
// that races images against each other on the same word can observe
// engine-dependent — though per-engine replay-stable — interleavings, on
// this engine pair exactly as it would across different GOMAXPROCS values.
//
//   - EngineGoroutine is the original engine, kept as the compatibility
//     reference: one goroutine per PE, per-PE sync.Cond broadcast wakeups and
//     O(world) fan-out scans. Its scheduling mechanics are preserved
//     unchanged (apart from the watch-targeted write wakeup, which both
//     engines share) so that differential runs compare the new engine
//     against the true legacy behaviour.
//
//   - EngineEvent is the scaled engine: PEs are resumable tasks over a
//     bounded worker pool. A PE that blocks parks after registering its wake
//     condition (a watch range, a barrier generation) with the world,
//     handing its worker slot to the next ready PE. Wakeups are targeted —
//     a writer wakes only the PE whose watch actually matched, a barrier
//     release hands each parked waiter its result directly, and fault
//     fan-outs walk the registry of watch-holding PEs instead of scanning
//     the whole world — and slot-granting: the wake delivers a worker slot
//     together with the event (immediately when one is free, FIFO-queued
//     otherwise), so resuming a PE costs one scheduling hop, not a wake
//     followed by a second block to reacquire a slot.
//
// Both engines keep World.awake, the count of PE goroutines that can still
// wake somebody: a PE leaves it under the lock that guards its sleep flag
// (sched.dmu here; p.mu and the barrier shard's mutex on the goroutine
// engine), its waker puts it back under the same lock, and whoever takes it
// to zero has proved deadlock (World.deadlock in fault.go). No goroutine
// watches a world and no verdict depends on host time.
//
// Task states in the event engine (DESIGN.md "Execution engine"):
//
//	running  — holds a worker slot, executing the PE body
//	parked   — wake condition registered, slot handed off, blocked on the
//	           grant channel (a wake that races ahead of the park sets a
//	           sticky ready flag the park consumes, so it is never lost)
//	ready    — woken, queued for a worker slot; the grant is the wakeup
//	done     — body returned (stopped) or executed a fail-image (failed)

import (
	"fmt"
	"runtime"
	"sync"
)

// Engine selects the execution engine underneath a World.
type Engine int

const (
	// EngineGoroutine is goroutine-per-PE with per-PE condition variables —
	// the original engine, kept as the compatibility mode.
	EngineGoroutine Engine = iota
	// EngineEvent is the virtual-time event-loop engine: a bounded worker
	// pool with targeted wakeups.
	EngineEvent
)

func (e Engine) String() string {
	if e == EngineEvent {
		return "event"
	}
	return "goroutine"
}

// ParseEngine converts a CLI flag value into an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "goroutine", "":
		return EngineGoroutine, nil
	case "event":
		return EngineEvent, nil
	default:
		return 0, fmt.Errorf("pgas: unknown engine %q (want goroutine or event)", s)
	}
}

// Options configures world construction beyond machine and size.
type Options struct {
	// Engine selects the execution engine. The zero value is
	// EngineGoroutine, the compatibility mode.
	Engine Engine
	// Workers bounds how many PE bodies run concurrently on the event
	// engine (ignored by the goroutine engine). Zero means GOMAXPROCS.
	Workers int
	// BarrierShards overrides the world barrier's leaf-shard count (see
	// barrier.go). Zero auto-sizes to one shard per 256 PEs; values are
	// clamped to [1, NumPEs]. Shard layout is a host-side performance knob:
	// the barrier's virtual-time results are bit-identical across layouts
	// (the tree aggregates an order-independent max), which the engine
	// differential gate checks.
	BarrierShards int
}

// sched is the event engine's central scheduler state, embedded in World.
// It tracks the PEs whose wake condition is a registered watch, so fault
// fan-outs (departures, repair writes, links given up) wake exactly the PEs
// that can act on them instead of scanning every partition in the world —
// and it owns the worker-slot dispatch: a wake event delivered to a parked
// PE carries a worker slot with it (granted immediately if one is free,
// queued FIFO otherwise), so a woken PE resumes in one scheduling hop
// instead of first waking and then blocking again to reacquire a slot.
type sched struct {
	mu       sync.Mutex
	watchers map[*PE]struct{}

	// Slot dispatch, guarded by dmu (separate from the watcher registry so
	// watch churn and park/wake traffic do not contend). free counts slots
	// held by no PE; ready/head form a FIFO of slotless PEs with a pending
	// wake (or not-yet-started bodies), each owed one slot grant.
	dmu   sync.Mutex
	free  int
	ready []*PE
	head  int
}

// noteWatcher records that p holds at least one registered watch.
func (s *sched) noteWatcher(p *PE) {
	s.mu.Lock()
	s.watchers[p] = struct{}{}
	s.mu.Unlock()
}

// dropWatcher records that p's last watch was deregistered.
func (s *sched) dropWatcher(p *PE) {
	s.mu.Lock()
	delete(s.watchers, p)
	s.mu.Unlock()
}

// snapshot appends the current watch-holding PEs to buf and returns it.
func (s *sched) snapshot(buf []*PE) []*PE {
	s.mu.Lock()
	for p := range s.watchers {
		buf = append(buf, p)
	}
	s.mu.Unlock()
	return buf
}

// grantLocked hands a freed worker slot to the next ready PE, or banks it in
// the free pool when nobody waits. Must be called with dmu held. The grant
// send never blocks: p.wake is buffered(1) and the state machine allows at
// most one outstanding grant per PE (a PE re-enters the ready queue only
// after consuming its previous grant).
func (s *sched) grantLocked() {
	if s.head < len(s.ready) {
		q := s.ready[s.head]
		s.ready[s.head] = nil
		s.head++
		if s.head == len(s.ready) {
			s.ready = s.ready[:0]
			s.head = 0
		}
		q.wake <- struct{}{}
		return
	}
	s.free++
}

// unpark is the parked → ready transition of a wake event for p, the one
// place a sleeper becomes runnable. A parked p is granted a worker slot —
// immediately when one is free, FIFO-queued otherwise — so the wake and the
// slot arrive as one scheduling hop, and unpark reports true: the caller owes
// World.awake one count on p's behalf, paid before it drops dmu so that p
// cannot park again uncounted. If p is running (or already granted), the
// event is noted in a sticky flag consumed by p's next park, so a wake racing
// ahead of the park is never lost. Must be called with dmu held.
func (s *sched) unpark(p *PE) bool {
	if !p.parked {
		p.readyFlag = true
		return false
	}
	p.parked = false
	if s.free > 0 {
		s.free--
		p.wake <- struct{}{}
	} else {
		s.ready = append(s.ready, p)
	}
	return true
}

// wakeEvent delivers a wake event to p (event engine). Callers need not hold
// any lock; the virtual-time results cannot depend on any of this (see the
// package comment), which the engine golden gate checks.
func (w *World) wakeEvent(p *PE) {
	s := &w.sched
	s.dmu.Lock()
	if s.unpark(p) {
		w.awake.Add(1)
	}
	s.dmu.Unlock()
}

// completeShard completes one barrier shard's generation — a release, or with
// poisoned set the unwinding of a poisoned world: it fills every registered
// waiter record in the shard's contiguous arena slice — result fields first,
// then the atomic done flag that publishes them — and wakes the waiters under
// a single dispatch-lock acquisition, counting them awake with one add. At
// 100k images the fan-out would otherwise pay a lock hand-off per waiter;
// batching per shard (rather than per world) keeps the walk a sequential pass
// over one arena. self — the PE running a release, if any — gets its record
// filled but no wake dispatch: it is running, and a sticky readyFlag would go
// stale. Caller holds the shard mutex, so registration cannot race the walk.
func (w *World) completeShard(arena []bWaiter, outT float64, outErr error, poisoned bool, self *PE) {
	s := &w.sched
	var woken int32
	s.dmu.Lock()
	for i := range arena {
		bw := &arena[i]
		if !bw.waiting {
			continue
		}
		bw.waiting = false
		bw.outT, bw.outErr, bw.poisoned = outT, outErr, poisoned
		bw.done.Store(true)
		if bw.p != self && s.unpark(bw.p) {
			woken++
		}
	}
	w.awake.Add(woken)
	s.dmu.Unlock()
}

// parkAndWait releases the calling PE's worker slot (handing it to the next
// ready PE) and parks until a wake event grants a slot back. If a wake
// already arrived — the sticky flag — it returns immediately, keeping the
// slot. Returns may be spurious; callers re-check their predicate in a loop.
// No locks may be held by the caller. The park is where a PE leaves
// World.awake: the one that empties it reports the deadlock once dmu is
// dropped, and is then woken by its own poison like every other sleeper.
func (w *World) parkAndWait(p *PE) {
	s := &w.sched
	s.dmu.Lock()
	if p.readyFlag {
		p.readyFlag = false
		s.dmu.Unlock()
		return
	}
	p.parked = true
	dead := w.awake.Add(-1) == 0
	s.grantLocked()
	s.dmu.Unlock()
	if dead {
		w.deadlock()
	}
	<-p.wake
}

// Yield lets other runnable PEs run before the caller's next probe — what a
// remote-spinning loop must call between probes, since the substrate cannot
// see what it spins on and counts it as running. On the event engine the
// caller hands its worker slot to the head of the ready FIFO and requeues at
// the tail: runtime.Gosched alone yields the OS thread but keeps the slot, so
// k spinners on k workers would starve the very PE they wait for. With an
// empty queue, and on the goroutine engine, it is runtime.Gosched.
func (p *PE) Yield() {
	if p.wake != nil {
		s := &p.world.sched
		s.dmu.Lock()
		if s.head < len(s.ready) {
			s.ready = append(s.ready, p)
			s.grantLocked()
			s.dmu.Unlock()
			<-p.wake
			return
		}
		s.dmu.Unlock()
	}
	runtime.Gosched()
}

// acquireSlotFor claims a worker slot for p's body to start running (event
// engine; no-op on goroutine). With more PEs than slots the surplus bodies
// queue behind parked-and-woken PEs and start as slots free up.
func (w *World) acquireSlotFor(p *PE) {
	if w.engine != EngineEvent {
		return
	}
	s := &w.sched
	s.dmu.Lock()
	if s.free > 0 {
		s.free--
		s.dmu.Unlock()
		return
	}
	s.ready = append(s.ready, p)
	s.dmu.Unlock()
	<-p.wake
}

// releaseSlotFor returns p's worker slot when its body finishes (handing it
// directly to the next ready PE, so unwinds chain through the pool).
func (w *World) releaseSlotFor(p *PE) {
	if w.engine != EngineEvent {
		return
	}
	s := &w.sched
	s.dmu.Lock()
	s.grantLocked()
	s.dmu.Unlock()
}

// wakeLocked wakes p from inside its partition lock (the write-visibility
// path). On the goroutine engine a sleeping p is counted awake again here, by
// its waker and under the lock that guards the asleep bit, so that a
// delivered wake is never uncounted.
func (p *PE) wakeLocked() {
	if p.wake != nil {
		p.world.wakeEvent(p)
		return
	}
	if p.asleep {
		p.asleep = false
		p.world.awake.Add(1)
		p.cond.Broadcast()
	}
}

// wakeFanout wakes p from outside its partition lock (departures, repair
// writes, unreachable-link marks, poison). The goroutine engine must take
// the partition lock so the wake cannot race ahead of a waiter's
// registration; the event engine's sticky ready flag makes the lock
// unnecessary.
func (p *PE) wakeFanout() {
	if p.wake != nil {
		p.world.wakeEvent(p)
		return
	}
	p.mu.Lock()
	p.wakeLocked()
	p.mu.Unlock()
}

// block parks the calling PE until a wake-relevant event arrives. Must be
// called with p.mu held; the lock is held again on return. Returns may be
// spurious — callers re-check their predicate in a loop.
//
// On the event engine the park releases the worker slot, so a blocked PE
// costs the pool nothing; the wake event delivers a slot together with the
// wake (see unpark), which is what bounds concurrently-running bodies —
// and what makes a park/wake cycle cost one scheduling hop, not two. On the
// goroutine engine the PE leaves World.awake as it sets its asleep bit; if
// that empties it, the PE reports the deadlock with p.mu dropped, and the
// poison's fan-out clears the bit again.
func (p *PE) block() {
	w := p.world
	if p.wake != nil {
		p.mu.Unlock()
		w.parkAndWait(p)
		p.mu.Lock()
		return
	}
	p.asleep = true
	if w.awake.Add(-1) == 0 {
		p.mu.Unlock()
		w.deadlock()
		p.mu.Lock()
	}
	for p.asleep {
		p.cond.Wait()
	}
}

// wakeWatchers wakes every PE holding a registered watch, except skip (the
// fault fan-out used by departures, repair writes and unreachable-link
// marks). The goroutine engine preserves its original whole-world scan gated
// on the per-PE waiter count; the event engine walks the scheduler registry,
// which is O(watch holders) regardless of world size.
func (w *World) wakeWatchers(skip *PE) {
	if w.engine == EngineEvent {
		w.scratchMu.Lock()
		buf := w.sched.snapshot(w.wakeBuf[:0])
		for _, q := range buf {
			if q != skip {
				w.wakeEvent(q)
			}
		}
		w.wakeBuf = buf
		w.scratchMu.Unlock()
		return
	}
	for _, q := range w.pes {
		if q != skip && q.waiters.Load() != 0 {
			q.wakeFanout()
		}
	}
}

// defaultWorkers resolves Options.Workers.
func defaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
