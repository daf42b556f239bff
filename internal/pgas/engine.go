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
// Both engines share one hang watchdog: a single polling goroutine per world
// (watchdog below), fed by the blocked-PE count and the event epoch the
// engines maintain. Nothing is armed or spawned when a PE blocks.
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
	"time"
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

// wakeEvent marks a wake-relevant event for p (event engine). If p is parked
// it becomes ready and is granted a worker slot — immediately when one is
// free, FIFO-queued otherwise — so the wake and the slot arrive as one
// scheduling hop. If p is running (or already granted), the event is noted
// in a sticky flag consumed by p's next park, so a wake racing ahead of the
// park is never lost. Callers need not hold any lock; the virtual-time
// results cannot depend on any of this (see the package comment), which the
// engine golden gate checks.
func (w *World) wakeEvent(p *PE) {
	s := &w.sched
	s.dmu.Lock()
	if p.parked {
		p.parked = false
		if s.free > 0 {
			s.free--
			s.dmu.Unlock()
			p.wake <- struct{}{}
			return
		}
		s.ready = append(s.ready, p)
	} else {
		p.readyFlag = true
	}
	s.dmu.Unlock()
}

// wakeBarrierShard releases one barrier shard's generation: it fills every
// registered waiter record in the shard's contiguous arena slice — result
// fields first, then the atomic done flag that publishes them — and wakes the
// waiters under a single dispatch-lock acquisition. At 100k images the
// release fan-out would otherwise pay a lock hand-off per waiter; batching
// per shard (rather than per world) keeps the walk a sequential pass over
// one arena. self — the PE running the release, if any — gets its record
// filled but no wake dispatch: it is running, and a sticky readyFlag would
// go stale. Per-waiter wake semantics are exactly wakeEvent's. Caller holds
// the shard mutex, so registration cannot race the walk.
func (w *World) wakeBarrierShard(arena []bWaiter, outT float64, outErr error, self *PE) {
	s := &w.sched
	s.dmu.Lock()
	for i := range arena {
		bw := &arena[i]
		if !bw.waiting {
			continue
		}
		bw.waiting = false
		bw.outT, bw.outErr = outT, outErr
		bw.done.Store(true)
		p := bw.p
		if p == self {
			continue
		}
		if p.parked {
			p.parked = false
			if s.free > 0 {
				s.free--
				p.wake <- struct{}{}
			} else {
				s.ready = append(s.ready, p)
			}
		} else {
			p.readyFlag = true
		}
	}
	s.dmu.Unlock()
}

// poisonBarrierShard is wakeBarrierShard's poison twin: registered waiters
// are marked poisoned, published, and woken so the world can unwind. Caller
// holds the shard mutex.
func (w *World) poisonBarrierShard(arena []bWaiter) {
	s := &w.sched
	s.dmu.Lock()
	for i := range arena {
		bw := &arena[i]
		if !bw.waiting {
			continue
		}
		bw.waiting = false
		bw.poisoned = true
		bw.done.Store(true)
		p := bw.p
		if p.parked {
			p.parked = false
			if s.free > 0 {
				s.free--
				p.wake <- struct{}{}
			} else {
				s.ready = append(s.ready, p)
			}
		} else {
			p.readyFlag = true
		}
	}
	s.dmu.Unlock()
}

// parkAndWait releases the calling PE's worker slot (handing it to the next
// ready PE) and parks until a wake event grants a slot back. If a wake
// already arrived — the sticky flag — it returns immediately, keeping the
// slot. Returns may be spurious; callers re-check their predicate in a loop.
// No locks may be held by the caller.
func (w *World) parkAndWait(p *PE) {
	s := &w.sched
	s.dmu.Lock()
	if p.readyFlag {
		p.readyFlag = false
		s.dmu.Unlock()
		return
	}
	p.parked = true
	s.grantLocked()
	s.dmu.Unlock()
	<-p.wake
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
// path). Engine-dispatching twin of the old unconditional cond.Broadcast.
func (p *PE) wakeLocked() {
	if p.wake != nil {
		p.world.wakeEvent(p)
		return
	}
	p.cond.Broadcast()
}

// wakeFanout wakes p from outside its partition lock (departures, repair
// writes, unreachable-link marks, poison). The goroutine engine must take
// the partition lock so the broadcast cannot race ahead of a waiter's
// registration; the event engine's sticky ready flag makes the lock
// unnecessary.
func (p *PE) wakeFanout() {
	if p.wake != nil {
		p.world.wakeEvent(p)
		return
	}
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// block parks the calling PE until a wake-relevant event arrives. Must be
// called with p.mu held; the lock is held again on return. Returns may be
// spurious — callers re-check their predicate in a loop.
//
// On the event engine the park releases the worker slot, so a blocked PE
// costs the pool nothing; the wake event delivers a slot together with the
// wake (see wakeEvent), which is what bounds concurrently-running bodies —
// and what makes a park/wake cycle cost one scheduling hop, not two.
func (p *PE) block() {
	w := p.world
	w.beginBlock()
	if p.wake != nil {
		p.mu.Unlock()
		w.parkAndWait(p)
		p.mu.Lock()
	} else {
		p.cond.Wait()
	}
	w.endBlock()
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
		if q == skip || q.waiters.Load() == 0 {
			continue
		}
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	}
}

// --- hang watchdog (see fault.go for the counters and the poison report) ---

// stallBudget is the wall-clock quiet time after which an all-blocked world
// is declared deadlocked. The base covers small worlds; the budget grows
// with image count because legitimate wake chains (a barrier release
// rippling through parked PEs, a repair walk fanning out) take host time
// proportional to the world. The goroutine engine keeps its historical
// linear 25µs/PE term (its wake chains are per-PE cond broadcasts, and it
// is capped at ~10k images anyway). The event engine's term is sub-linear:
// a release is one sequential dispatch pass (~ns per PE) plus the woken
// bodies draining through the bounded worker pool (~µs per PE per worker) —
// a linear 25µs/PE term would put the 100k budget past five seconds, long
// enough to mask real deadlocks, where the calibrated form stays under a
// second. Under the race detector everything runs roughly an order of
// magnitude slower, so the whole budget scales up — a 100k-image event-loop
// run under -race must not false-positive as a deadlock.
func (w *World) stallBudget() time.Duration {
	var d time.Duration
	if w.engine == EngineEvent {
		workers := w.workers
		if workers < 1 {
			workers = 1
		}
		d = stallRealDelay +
			time.Duration(w.n)*250*time.Nanosecond +
			time.Duration(w.n/workers)*2500*time.Nanosecond
	} else {
		d = stallRealDelay + time.Duration(w.n)*25*time.Microsecond
	}
	if RaceEnabled {
		d *= 8
	}
	return d
}

// watchdog is the hang backstop of a running world: one goroutine per world
// on either engine, polling at a coarse tick and poisoning the world after
// stallBudget of continuous all-blocked, event-free quiet. Polling — rather
// than arming a detector when the last PE blocks — re-examines the world on
// every tick, so an all-blocked state reached by a *departure* (the last
// running PE stops while the rest wait on something its departure does not
// complete) is caught like one reached by a block, and quiet is counted in
// observed ticks, so a host that freezes the process for a while adds one
// tick, not the whole freeze. It counts goroutines, not life-cycle states: the
// world is stalled when every PE goroutine that has not yet returned sits in a
// blocking wait. A PE that departed but whose goroutine is still blocked (a
// deferred call of a failed image, say) keeps Run from returning just the
// same, so it counts as blocked; one that departed and is still *running* can
// yet wake somebody, so it counts as running — exactly like an alive PE in a
// long compute phase. gen is the Run this watchdog belongs to: World.Run bumps
// runGen when it starts and when it returns, and the watchdog ends at its
// next tick once the generation has moved on — or once the world is poisoned
// and unwinding — so a tick costs a sleep and a few atomic loads and stopping
// it allocates nothing.
func (w *World) watchdog(gen uint64) {
	const tick = 5 * time.Millisecond
	budget := w.stallBudget()
	var quiet time.Duration
	last := w.eventEpoch.Load()
	for {
		time.Sleep(tick)
		if w.runGen.Load() != gen || w.poisoned.Load() {
			return
		}
		e, running, blocked := w.eventEpoch.Load(), int32(w.n)-w.exitedN.Load(), w.blockedN.Load()
		if e != last || blocked < running || blocked == 0 {
			last = e
			quiet = 0
			continue
		}
		quiet += tick
		if quiet >= budget {
			// Every goroutine left is blocked, the alive PEs among them: the
			// rest of the blocked ones have departed.
			w.poisonStall(w.aliveN.Load(), blocked)
			return
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
