package pgas

// Execution engine. Every PE body runs on its own goroutine, scheduled by the
// Go runtime, and a PE sleeps in exactly one way: PE.block, on its own
// condition variable under its partition lock — in a wait and in the barrier
// alike. The substrate's virtual-time semantics are a pure function of
// (program, machine model, fault plan): every write carries a caller-computed
// visibility timestamp, every wait merges the maximum recorded timestamp over
// its range, and barriers aggregate an order-independent maximum, so how PE
// bodies get host CPU time cannot reach a modelled result of a program whose
// cross-image interactions are arbitrated by the modelled synchronisation
// (the determinism gate in check.sh runs the same programs over barrier shard
// layouts and GOMAXPROCS values). The one arbitration the substrate does NOT
// model is arrival order at a contended atomic word: RMW64 applies
// operations in host arrival order (ROADMAP, P0 item).
//
// World.awake counts the PE goroutines that can still wake somebody. A PE
// leaves it in block, under its partition lock, as it sets its asleep bit;
// its waker puts it back in wakeLocked, under the same lock, as it clears the
// bit; a returning goroutine leaves it in World.exit. Whoever takes it to
// zero has proved deadlock (World.deadlock in fault.go). No goroutine watches
// a world and no verdict depends on host time.

import "runtime"

// Engine is a leftover of the two-engine design.
//
// Deprecated: ignored. There is one execution engine; the type, its two
// values and Options.Engine select nothing and survive only because
// benchmark/ spells them (ROADMAP, ledger item, deletes them).
type Engine int

const (
	// Deprecated: ignored.
	EngineGoroutine Engine = iota
	// Deprecated: ignored.
	EngineEvent
)

// Options configures world construction beyond machine and size.
type Options struct {
	// Engine selects nothing.
	//
	// Deprecated: ignored; see Engine.
	Engine Engine
	// BarrierShards overrides the world barrier's leaf-shard count (see
	// barrier.go). Zero auto-sizes to one shard per 256 PEs; values are
	// clamped to [1, NumPEs]. Shard layout is a host-side performance knob:
	// the barrier's virtual-time results are bit-identical across layouts
	// (the tree aggregates an order-independent max), which the determinism
	// gate checks.
	BarrierShards int
}

// block puts the calling PE to sleep until it is woken. Must be called with
// p.mu held; the lock is held again on return. Returns may be spurious —
// callers re-check their condition in a loop, under the lock, so a wake whose
// cause was published before the waker took p.mu cannot be lost. The PE leaves
// World.awake as it sets its asleep bit; if that empties it, the PE reports
// the deadlock with p.mu dropped, and the poison's fan-out clears the bit
// again. Every call is one park of the goroutine, counted for World.Metrics.
func (p *PE) block() {
	w := p.world
	p.sleeps++
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

// wakeLocked wakes p from inside its partition lock (the write-visibility
// path). A sleeping p is counted awake again here, by its waker and under the
// lock that guards the asleep bit, so that a delivered wake is never
// uncounted.
func (p *PE) wakeLocked() {
	if p.asleep {
		p.asleep = false
		p.world.awake.Add(1)
		p.cond.Broadcast()
	}
}

// wakeFanout wakes p from outside its partition lock (barrier releases,
// departures, repair writes, unreachable-link marks, poison). Taking the lock
// is what keeps the wake from racing ahead of a sleeper that has checked its
// condition and not yet set its asleep bit.
func (p *PE) wakeFanout() {
	p.mu.Lock()
	p.wakeLocked()
	p.mu.Unlock()
}

// wakeWatchers wakes every PE holding a registered watch, except skip: the
// fault fan-out of departures, repair writes and unreachable-link marks,
// whose effect a waiter sees only through its onEvent hook. While no PE in
// the world holds a watch it visits nothing — every returning PE passes
// through here, so an unconditional scan is n² loads per job — and otherwise
// it skips, without their locks, the partitions nobody waits on. Both tests
// are one half of a store-then-load handshake (seq-cst, as Go's atomics are):
// the caller publishes its state change before it loads World.watches and
// PE.waiters, a waiter stores both before it (re-)checks that state, so one
// of the two always sees the other. A poisoned world needs no fan-out, and
// its unwinding PEs would again pay n² for one: poison wakes every sleeper
// itself, and no wait sleeps once the flag is up.
func (w *World) wakeWatchers(skip *PE) {
	if w.watches.Load() == 0 || w.poisoned.Load() {
		return
	}
	w.wakeVisits.Add(int64(w.n))
	for _, q := range w.pes {
		if q != skip && q.waiters.Load() != 0 {
			q.wakeFanout()
		}
	}
}

// Yield lets other runnable PEs run before the caller's next probe — what a
// remote-spinning loop must call between probes, since the substrate cannot
// see what it spins on and counts it as running.
func (p *PE) Yield() { runtime.Gosched() }
