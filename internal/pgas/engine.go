package pgas

// Execution engine. Every PE body runs on a goroutine of its own, scheduled by
// the Go runtime: a runner, reused across worlds (runner below), so a world's
// PEs start on stacks an earlier world already grew. A PE sleeps in exactly
// one way: PE.block, on its own condition variable under its partition lock —
// in a wait, a remote spin's too, and in the barrier. Virtual-time semantics
// are a pure function of (program, machine model, fault plan): every write
// carries a caller-computed visibility timestamp, every wait merges the
// maximum recorded timestamp over its range, and barriers aggregate an
// order-independent maximum, so how PE bodies get host CPU time (or which
// goroutine runs them) cannot reach a modelled result of a program whose
// cross-image interactions are arbitrated by the modelled synchronisation
// (DESIGN.md "Execution engine" states this contract; check.sh runs every
// TestDeterminism test at GOMAXPROCS 1, 2 and 8). The one arbitration the
// substrate does NOT model is arrival order at a contended atomic word: RMW64
// applies operations in host arrival order (ROADMAP, P0 item).
// TestEventEngineFaultFanout, FuzzEngineDifferential and the engine-labelled
// subtests keep the names they had when a second engine existed, until the
// Engine stub below goes.
//
// World.awake counts the PE goroutines that can still wake somebody. A PE
// leaves it in block, under its partition lock, as it sets its asleep bit;
// its waker puts it back in wakeLocked, under the same lock, as it clears the
// bit; a returning goroutine leaves it in World.exit. Whoever takes it to
// zero has proved deadlock (World.deadlock in fault.go). No goroutine watches
// a world and no verdict depends on host time.

import (
	"fmt"
	"sync"

	"cafshmem/internal/fabric"
)

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

// Options configures world construction beyond machine and size, once: a
// world has no setter. FaultPlan and ActivePairs are its virtual-time fields:
// a run's virtual times are bit-identical under any setting of the others.
type Options struct {
	// FaultPlan schedules deterministic faults on every library: image kills
	// (taken by layered runtimes at their operation boundaries), link
	// penalties (every message and atomic) and message losses (Transmit). Nil
	// schedules nothing and charges nothing.
	FaultPlan *fabric.FaultPlan
	// ActivePairs is the contention model's number of PEs per node
	// concurrently driving the NIC (World.ActivePairs): the microbenchmarks'
	// "1 pair" against "16 pairs" configurations (paper §III). Zero derives it
	// from placement, every co-located PE active — the SPMD common case. Like
	// FaultPlan it moves virtual time, and it is fixed for the world's life.
	ActivePairs int
	// Engine selects nothing.
	//
	// Deprecated: ignored; see Engine.
	Engine Engine
	// Sanitize enables the runtime sanitizer (sanitizer.go): completion,
	// leak, collective-divergence and lock checks of every library over the
	// world, reported through Run's error. Off by default; when off, no
	// sanitizer state exists and each hook costs one nil check.
	Sanitize bool
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
// uncounted; p.wakes counts it either way, for a remote wait not yet asleep.
func (p *PE) wakeLocked() {
	p.wakes++
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
	for i := range w.pes {
		if q := &w.pes[i]; q != skip && q.waiters.Load() != 0 {
			q.wakeFanout()
		}
	}
}

// runners is the process's stack of idle runners: goroutines that finished a
// PE of some world's Run and wait, each on its own channel, for a PE of any
// world. It never holds more runners than the largest world whose Run parked
// one there: a runner retires instead of parking when it finds as many idle as
// its world had PEs.
var runners struct {
	mu   sync.Mutex
	idle []chan peRun
}

// peRun is what a runner runs next: one PE of a Run, and the Run's body.
type peRun struct {
	p    *PE
	body func(*PE)
}

// start hands each of w's PEs to a runner, in rank order: idle ones first,
// then new ones. An idle runner's channel has room for one and is empty (the
// runner drained it before it parked), so a hand-off never blocks, allocates
// nothing, and all of them take the stack's lock once.
func (w *World) start(body func(*PE)) {
	runners.mu.Lock()
	k := min(len(runners.idle), w.n)
	w.started.Add(int64(w.n - k))
	for i := range k {
		top := len(runners.idle) - 1
		runners.idle[top] <- peRun{&w.pes[i], body}
		runners.idle[top] = nil
		runners.idle = runners.idle[:top]
	}
	runners.mu.Unlock()
	for i := k; i < w.n; i++ {
		go runner(peRun{&w.pes[i], body})
	}
}

// runner is a runner goroutine's life: the PE it was started for, then each PE
// handed to it while it was idle, until it retires or a body ends it. While
// idle it holds nothing of the PE it ran (TestIdleRunnerKeepsNoWorld).
func runner(next peRun) {
	ch := make(chan peRun, 1)
	for next.p.world.runPE(next.p, next.body, ch) {
		next = <-ch
	}
}

// runPE runs one PE of a Run: body on p, then p's departure (a return stops
// the PE, a panic poisons the world, FAIL IMAGE's peFailed unwind has departed
// already) and its exit from the quiescence count. The runner then parks on ch
// and reports true, or retires, before the Run can return. A body that ends in
// runtime.Goexit (t.FailNow on a PE goroutine) stops the PE like a return, but
// its goroutine is ending: it parks nowhere, so no Run hands it work. A panic
// reaches the recover with no partition lock held: every site that stores,
// reads, clears or waits under one unlocks through a defer, so the poison's
// fan-out, which takes each lock, never waits on the goroutine unwinding.
func (w *World) runPE(p *PE, body func(*PE), ch chan peRun) (parked bool) {
	returned := false
	defer func() {
		r := recover()
		switch _, failed := r.(peFailed); {
		case r == nil:
			w.markStopped(p)
		case !failed:
			w.poison(fmt.Errorf("pgas: PE %d panicked: %v", p.ID, r))
		}
		w.exit()
		parked = (returned || r != nil) && park(ch, w.n)
		w.runs.Done()
	}()
	body(p)
	returned = true
	return false
}

// park puts a runner that has finished a PE of an n-PE world on the idle
// stack, unless the stack holds n runners already: then it reports false and
// the runner retires.
func park(ch chan peRun, n int) bool {
	runners.mu.Lock()
	defer runners.mu.Unlock()
	if len(runners.idle) >= n {
		return false
	}
	runners.idle = append(runners.idle, ch)
	return true
}
