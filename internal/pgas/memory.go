package pgas

import (
	"encoding/binary"
	"fmt"
)

// checkRange panics unless the n bytes at off lie inside a partition: the one
// bound of partition memory, checked by every entry that stores or waits
// before it takes a lock.
func checkRange(what string, off, n int64) {
	if off < 0 || n > MaxSegmentBytes-off {
		rangePanic(what, off, n)
	}
}

// rangePanic is checkRange's panic, kept out of line so that checkRange
// inlines into every entry point.
//
//go:noinline
func rangePanic(what string, off, n int64) {
	panic(fmt.Sprintf("pgas: %s of %d bytes at offset %d out of range", what, n, off))
}

// Write copies data into the target PE's partition at off, one-sided: the
// target goroutine does not participate. visibleAt is the virtual time at
// which the data becomes observable at the target; watches overlapping the
// range adopt it, and blocked waiters are woken.
func (w *World) Write(target int, off int64, data []byte, visibleAt float64) {
	if len(data) == 0 {
		return
	}
	checkRange("write", off, int64(len(data)))
	if w.stateOf(target) == stateFailed {
		return // a failed PE's partition is frozen: one-sided writes are dropped
	}
	p := w.part(target)
	p.mu.Lock()
	defer p.unlockStore(true)
	p.store(off, data, visibleAt)
}

// unlockStore drops p.mu, then after a store wakes the other PEs watching the
// partition: a wake under p.mu could deadlock with a waiter holding its own.
func (p *PE) unlockStore(stored bool) {
	remote := stored && p.remote.Load() != 0
	p.mu.Unlock()
	if remote {
		p.world.wakeWatchers(p)
	}
}

// store is one write to the partition, as every path but the vectored ones
// makes it: bytes and timestamps through a cursor of one piece, then the
// watch. Must be called with p.mu held, the range checked.
func (p *PE) store(off int64, data []byte, visibleAt float64) {
	c := p.seg.cursor()
	c.put(off, data, visibleAt)
	p.wakeOverlapping(off, int64(len(data)), visibleAt)
}

// Touch performs the write-visibility bookkeeping of a one-byte store of
// zero at (target, off) without storing anything. Symmetric-heap allocators
// use it to "back" a freshly allocated region: the timestamp index, watch
// scan, and waiter wakeups behave exactly as for Write([]byte{0}), but no
// byte is stored, so a page that has none gets none. The byte already reads
// as zero: it was never written, or the heap's Free cleared it.
func (w *World) Touch(target int, off int64, visibleAt float64) {
	checkRange("touch", off, 1)
	if w.stateOf(target) == stateFailed {
		return // as for Write: a failed PE's partition is frozen
	}
	p := w.part(target)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.noteTouch(off, visibleAt)
}

// Read copies len(dst) bytes out of the target PE's partition at off. Bytes
// never written read as zero, and reading materialises nothing, so
// read-mostly workloads at high PE counts do not inflate memory for ranges
// that were never stored to.
func (w *World) Read(target int, off int64, dst []byte) {
	if len(dst) == 0 {
		return
	}
	checkRange("read", off, int64(len(dst)))
	p := w.part(target)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.seg.readAt(off, dst)
}

// WriteUint64 stores an 8-byte host-order word one-sided.
func (w *World) WriteUint64(target int, off int64, v uint64, visibleAt float64) {
	var b [8]byte
	binary.NativeEndian.PutUint64(b[:], v)
	w.Write(target, off, b[:], visibleAt)
}

// ReadUint64 loads an 8-byte host-order word one-sided.
func (w *World) ReadUint64(target int, off int64) uint64 {
	var b [8]byte
	w.Read(target, off, b[:])
	return binary.NativeEndian.Uint64(b[:])
}

// AtomicOp names a read-modify-write operation on a 64-bit word.
type AtomicOp int

const (
	OpAdd AtomicOp = iota
	OpAnd
	OpOr
	OpXor
	OpSwap
)

// RMW64 atomically applies op to the 64-bit host-order word at (target,
// off) and returns the previous value. The update is visible at visibleAt.
func (w *World) RMW64(target int, off int64, op AtomicOp, operand uint64, visibleAt float64) uint64 {
	old, _ := w.rmw64(target, off, op, operand, 0, visibleAt)
	return old
}

// RMW64Stat is every library's remote atomic, issued by this PE: it charges
// the link penalty and c.Inject, then applies op with operand to the word at
// (target, off), visible at (clock + c.Lat) + c.Tail (an active message's
// handler prices its flight as Lat and Tail). ok is false when the target has
// failed and its word is frozen, decided under the partition lock with the
// store, so it is exact even when the target fails mid-call.
func (p *PE) RMW64Stat(target int, off int64, op AtomicOp, operand uint64, c Price) (old uint64, ok bool) {
	return p.world.rmw64(target, off, op, operand, 0, p.atomicAt(c))
}

// CompareSwap64Stat is RMW64Stat's compare-and-swap: the word becomes desired
// iff it equals expected.
func (p *PE) CompareSwap64Stat(target int, off int64, expected, desired uint64, c Price) (old uint64, ok bool) {
	return p.world.rmw64(target, off, opCAS, desired, expected, p.atomicAt(c))
}

// atomicAt charges an atomic priced c and returns when it applies.
func (p *PE) atomicAt(c Price) float64 {
	p.linkPenalty()
	p.Clock.Advance(c.Inject)
	return p.Clock.Now() + c.Lat + c.Tail
}

// Spin takes the word at (target, off) for a remote-spinning lock: cas is the
// library's compare-and-swap of 0 for the caller's mark (false: target has
// failed), and a failed probe backs off backoff (> 0) ns, doubling up to
// limit. The PE sleeps while the word is held; the probes that would have
// landed before the release it wakes on are charged in virtual time (price,
// link penalty, backoff) and counted in replayed (DESIGN.md "Remote spins").
func (p *PE) Spin(target int, off int64, backoff, limit float64, cas func() (uint64, bool)) (replayed int64, ok bool) {
	q, clock := p.world.part(target), &p.Clock
	backOff := func() { clock.Advance(backoff); backoff = min(2*backoff, limit) }
	for {
		free, err := p.wait(q, off, 8, func(b []byte) bool { return binary.NativeEndian.Uint64(b) == 0 }, nil)
		if _, failed := err.(*ImageFault); failed {
			return replayed, false
		} else if err != nil {
			panic(err)
		}
		t, pen := clock.Now(), p.world.plan.LinkPenaltyNs(p.ID, clock.Now())
		old, ok := cas()
		if !ok || old == 0 {
			for price := clock.Now() - t - pen; ok && clock.Now() < free; replayed++ {
				backOff()
				p.linkPenalty()
				clock.Advance(price)
			}
			return replayed, ok
		}
		backOff() // another spinner took the word first
	}
}

// opCAS is rmw64's compare-and-swap: operand replaces a word equal to
// expected.
const opCAS = OpSwap + 1

// rmw64 applies op at (target, off), visible at visibleAt, unless the target
// has failed.
func (w *World) rmw64(target int, off int64, op AtomicOp, operand, expected uint64, visibleAt float64) (old uint64, ok bool) {
	checkRange("atomic", off, 8)
	p := w.part(target)
	p.mu.Lock()
	stored := false
	defer func() { p.unlockStore(stored) }()
	var b [8]byte
	p.seg.readAt(off, b[:])
	old = binary.NativeEndian.Uint64(b[:])
	if w.stateOf(target) == stateFailed {
		return old, false // frozen partition: observe, never mutate
	}
	var nw uint64
	switch op {
	case OpAdd:
		nw = old + operand
	case OpAnd:
		nw = old & operand
	case OpOr:
		nw = old | operand
	case OpXor:
		nw = old ^ operand
	case OpSwap:
		nw = operand
	case opCAS:
		if old != expected {
			return old, true
		}
		nw = operand
	default:
		panic(fmt.Sprintf("pgas: unknown atomic op %d", op))
	}
	binary.NativeEndian.PutUint64(b[:], nw)
	p.store(off, b[:], visibleAt)
	stored = true
	return old, true
}

// tsTrackMaxBytes bounds which writes record per-word timestamps: flag and
// control-word traffic is always small; bulk payloads are never waited on.
const tsTrackMaxBytes = 1024

// noteTouch is the bookkeeping of the symmetric-heap Touch: the watch scan
// and wakeup of a write, but the timestamp goes through the index's sparse
// overlay, so backing a region at a high never-written offset does not
// materialise a granule's timestamps (at 10k PEs the per-malloc Touch blocks
// dominated world-construction time and memory). Must be called with p.mu held.
func (p *PE) noteTouch(off int64, visibleAt float64) {
	p.seg.recordWordSparse(off, visibleAt)
	p.wakeOverlapping(off, 1, visibleAt)
}

// wakeOverlapping raises overlapping watches to visibleAt and wakes the
// partition's waiters when any watch matched. Must be called with p.mu held.
//
// Watch-awareness: the wakeup is skipped when no watch is registered — and
// since a waiter's predicate reads only its own watched range, also when the
// registered watch does not overlap the written range (a write that cannot
// change the waiter's predicate). That is sound because the only sleepers on the
// partition are WaitUntil/WaitUntilStat, which always hold a registered
// watch over exactly the bytes their predicate reads, and a waiter that
// registers later re-evaluates its predicate against the already-written
// bytes before blocking — no wakeup can be lost. World-level conditions a
// WaitUntilStat onEvent hook checks (departures, repair writes, dead links)
// have their own fan-outs and never depend on unrelated-write wakeups.
// Timestamp *recording* stays unconditional (see tsindex.go): it is what keeps
// wait timestamps independent of whether the write raced ahead of the watch
// registration.
func (p *PE) wakeOverlapping(off, n int64, visibleAt float64) {
	if p.raiseWatch(off, n, visibleAt) {
		p.wakeLocked()
	}
}

// raiseWatch lifts the PE's watch to visibleAt if it is registered on its own
// partition and overlaps [off, off+n), and reports whether it did. Must be
// called with p.mu held.
func (p *PE) raiseWatch(off, n int64, visibleAt float64) bool {
	wt := &p.watch
	if wt.on != p || off >= wt.off+wt.n || wt.off >= off+n {
		return false
	}
	wt.ts = max(wt.ts, visibleAt)
	return true
}

// rangeTs returns the latest recorded visibility timestamp overlapping
// [off, off+n). Must be called with p.mu held.
func (p *PE) rangeTs(off, n int64) float64 { return p.seg.maxRange(off, n) }

// Cmp is a typed comparison of a 64-bit word against an operand — the
// shmem_wait_until(ivar, cmp, value) form, which needs no predicate closure.
// Words compare as signed 64-bit integers.
type Cmp int

const (
	CmpEQ Cmp = iota
	CmpNE
	CmpGT
	CmpGE
	CmpLT
	CmpLE
)

// Holds reports whether "a cmp b" is true.
func (c Cmp) Holds(a, b int64) bool {
	switch c {
	case CmpEQ:
		return a == b
	case CmpNE:
		return a != b
	case CmpGT:
		return a > b
	case CmpGE:
		return a >= b
	case CmpLT:
		return a < b
	default:
		return a <= b
	}
}

// wait is the one blocking loop behind every wait form: it blocks the calling
// PE until pred holds over the n bytes at off of q's partition (its own, or
// another PE's for Spin), then returns the virtual time at which the last
// write to the range became visible (0 if the range was never written) — the
// per-word timestamp index makes that independent of whether the satisfying
// write raced ahead of the watch registration. onEvent, when non-nil, runs on
// every unsatisfied wake-up under p's lock and aborts the wait by returning an
// error; a poisoned world aborts it with the poison error, a failed remote q
// with that failure. Nothing here allocates: the watch record and gather
// scratch live in the PE, and neither pred nor onEvent is retained, so the
// callers' closures stay on their stacks. A remote waiter takes q's lock with
// its own dropped, and sleeps only if no wake came in between (p.wakes).
func (p *PE) wait(q *PE, off, n int64, pred func([]byte) bool, onEvent func() error) (float64, error) {
	checkRange("wait", off, n)
	scratch := p.wordBuf[:]
	if n > int64(len(scratch)) {
		scratch = make([]byte, n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	wt := p.addWatch(q, off, n)
	defer p.removeWatch()
	remote := q != p
	if remote {
		q.remote.Add(1)
		defer q.remote.Add(-1)
	}
	for {
		if err := p.world.failedErr(); err != nil {
			return 0, err
		}
		if remote && p.world.Failed(q.ID) {
			return 0, &ImageFault{Failed: []int{q.ID}}
		}
		wakes := p.wakes
		ok, ts := p.probe(q, off, n, pred, scratch)
		if ok {
			return max(ts, wt.ts), nil
		}
		if onEvent != nil {
			if err := onEvent(); err != nil {
				return 0, err
			}
		}
		if p.wakes == wakes {
			p.block()
		}
	}
}

// probe evaluates pred over the n bytes at off of q's partition, under q's
// lock, and returns it with their latest timestamp. Must be called with p.mu
// held: a remote probe drops it for q's, as no goroutine holds two partition
// locks, and takes it back on the way out, a panicking pred's included.
func (p *PE) probe(q *PE, off, n int64, pred func([]byte) bool, scratch []byte) (bool, float64) {
	if q != p {
		p.mu.Unlock()
		defer p.mu.Lock()
		q.mu.Lock()
		defer q.mu.Unlock()
	}
	return pred(q.seg.view(off, n, scratch)), q.rangeTs(off, n)
}

// WaitUntil blocks the calling PE until pred holds over the n bytes at off of
// its own partition and returns the causal timestamp of the satisfying write,
// which the caller merges into its clock. Panics if the world is poisoned.
//
// This is the substrate for shmem_wait_until and for the local spin of the
// MCS lock (paper §IV-D: "It will then locally spin on its qnode's locked
// field"); layers that compare one word use WaitWord, whose typed condition
// crosses their interfaces without a closure.
func (p *PE) WaitUntil(off, n int64, pred func([]byte) bool) float64 {
	ts, err := p.wait(p, off, n, pred, nil)
	if err != nil {
		panic(err)
	}
	return ts
}

// WaitUntil64 blocks until cmp(word) holds for the local 64-bit word at off.
func (p *PE) WaitUntil64(off int64, cmp func(uint64) bool) float64 {
	return p.WaitUntil(off, 8, func(b []byte) bool {
		return cmp(binary.NativeEndian.Uint64(b))
	})
}

// WaitWord blocks until the local 64-bit word at off satisfies "word cmp
// operand" and returns the satisfying value with its causal timestamp.
// Panics if the world is poisoned.
func (p *PE) WaitWord(off int64, cmp Cmp, operand int64) (int64, float64) {
	got, ts, err := p.WaitWordStat(off, cmp, operand, nil)
	if err != nil {
		panic(err)
	}
	return got, ts
}

// ReadLocal copies n bytes at off of the PE's own partition into dst — the
// allocation-free form of LocalBytes for callers that bring their own buffer.
func (p *PE) ReadLocal(off int64, dst []byte) {
	p.world.Read(p.ID, off, dst)
}

// LocalBytes returns a snapshot copy of n bytes at off of the PE's own
// partition. A copy (not an alias) is returned because partition pages may be
// written concurrently by remote PEs.
func (p *PE) LocalBytes(off, n int64) []byte {
	dst := make([]byte, n)
	p.world.Read(p.ID, off, dst)
	return dst
}

// StoreLocal writes into the PE's own partition with immediate visibility
// (used for initialising local coarray data; costs are the caller's concern).
func (p *PE) StoreLocal(off int64, data []byte) {
	p.world.Write(p.ID, off, data, p.Clock.Now())
}

// ZeroLocal is StoreLocal of n zero bytes at off, without allocating them: one
// store from the read-only zero source (Zeros), or for more than it holds a
// run of whole-length stores, the last overlapping its predecessor — each,
// like the one store of n bytes, too large to record per-word timestamps
// (tsTrackMaxBytes).
func (p *PE) ZeroLocal(off, n int64) {
	z := min(n, int64(len(zeros)))
	for at := off; at < off+n; at += z {
		p.StoreLocal(min(at, off+n-z), zeros[:z])
	}
}
