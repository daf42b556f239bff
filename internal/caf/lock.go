package caf

import (
	"errors"
	"fmt"
	"slices"

	"cafshmem/internal/pgas"
)

// Lock is a coarray lock variable: "type(lock_type) :: lck[*]". Each image
// hosts one lock instance; any image may acquire the instance at any image j
// with Acquire(j) — the runtime form of "lock(lck[j])".
//
// OpenSHMEM's own locks are single global entities, so they cannot express
// per-image lock instances without an N-element array per lock (§IV-D). The
// default implementation is therefore the paper's adaptation of the MCS
// queue lock:
//
//   - each image hosts a tail word per lock instance;
//   - contenders enqueue with a remote fetch-and-store (swap) of their
//     packed qnode reference (RemoteRef);
//   - waiters spin on the locked field of their *own* qnode (local memory —
//     the property MCS exists to provide);
//   - release uses compare-and-swap to detach when there is no successor, or
//     resets the successor's locked field with an 8-byte put.
//
// Qnodes live in the pre-allocated non-symmetric buffer; an image holding M
// locks has M (+1 while acquiring) live qnodes, tracked in the image's
// held-lock table of (lock, image, qnode) entries — the bookkeeping of §IV-D,
// searched linearly, since an image holds few locks at once.
//
// The queue is repairable after FAIL IMAGE (fail.go). Each qnode records, in
// a third word, which node its image enqueued behind:
//
//	[0:8]   locked flag (1 = waiting, 0 = holds/held the lock)
//	[8:16]  packed next pointer (filled by the successor's link put)
//	[16:24] packed prev pointer (stored locally at enqueue)
//
// A failed image's partition freezes, so its qnodes become forensically
// readable tombstones: locked==0 identifies a node that held (or had been
// granted) the lock at death, and prev preserves the queue order. Two
// properties make recovery tractable:
//
//   - An image blocked waiting for a lock cannot fail: faults fire only at an
//     image's own operation boundaries, and a blocked image executes none. So
//     dead nodes in the queue are only ever dead *holders*.
//   - There are no fault points between a contender's tail swap and its link
//     put, so a node that swapped in always links itself before it can die.
//
// Recovery is therefore a short walk: a waiter woken while images have
// failed inspects its predecessor — alive means a grant is still coming;
// dead with locked==0 means every node between the lock and this waiter is
// gone, and the waiter inherits the lock (a takeover). The lock stays live
// for the survivors; only the death of the lock variable's *home* image
// (which holds the tail word) retires it, surfacing as StatFailedImage from
// then on. In a fault-free world none of this charges anything: the third
// word and the self-mark are local stores, and the repair hook never fires.
type Lock struct {
	img *Image
	off int64 // symmetric offset: word 0 = MCS tail / spin word, word 1 = vendor state
	n   int64 // allocation size (for Deallocate)
}

// heldLock is one entry of an image's held-lock table: the lock instance
// (the lock's offset, the image hosting it) and the local offset of its qnode,
// -1 for the kinds that have none.
type heldLock struct {
	off   int64
	image int
	qOff  int64
}

const qnodeBytes = 24 // [0:8] locked flag, [8:16] packed next, [16:24] packed prev

// qnodeInit is the image of a freshly enqueued qnode — locked := 1 and every
// pointer word nil — and qnodeGranted that of a node born holding the lock.
// Read-only: StoreLocal copies out of them.
var (
	qnodeInit    = [qnodeBytes]byte{0: 1}
	qnodeGranted [qnodeBytes]byte
)

// vendorLockOverheadNs is the calibrated extra bookkeeping the Cray CAF lock
// path pays per acquisition relative to the paper's MCS adaptation.
const vendorLockOverheadNs = 1350

// NewLock collectively creates a lock coarray. Every image must call it.
func NewLock(img *Image) *Lock {
	words := int64(2)
	if img.opts.Locks == LockGlobalArray {
		// §IV-D strawman: an N-element array of global locks per lock
		// variable, one element per image.
		words = int64(img.NumImages())
	}
	off := img.malloc(words*8, false)
	return &Lock{img: img, off: off, n: words * 8}
}

// Deallocate collectively releases the lock coarray.
func (l *Lock) Deallocate() {
	l.img.be.free(l.off, l.n)
}

// Holds reports whether this image currently holds the lock at image j —
// the held-lock table lookup the runtime performs for lock/unlock.
func (l *Lock) Holds(j int) bool { return l.img.heldAt(l.off, j) >= 0 }

// Acquire executes "lock(lck[j])", blocking until the lock instance at image
// j (1-based) is held. Acquiring a lock this image already holds is an error
// condition in the standard and panics here; so, without a STAT specifier, is
// involvement of a failed image — a world-poisoning panic instead of a hang.
func (l *Lock) Acquire(j int) {
	if stat := l.acquire(j); stat != StatOK {
		panic(fmt.Sprintf("caf: lock(lck[%d]) involving failed image without stat=: %v", j, stat))
	}
}

// AcquireStat executes "lock(lck[j], stat=...)": like Acquire, but if the
// lock's home image j has failed the acquisition is abandoned with
// StatFailedImage instead of error termination, and a failed previous holder
// is recovered from transparently (the takeover path). StatOK means the lock
// is held.
func (l *Lock) AcquireStat(j int) Stat { return l.acquire(j) }

func (l *Lock) acquire(j int) Stat {
	img := l.img
	img.pollFault()
	img.checkImage(j)
	if img.heldAt(l.off, j) >= 0 {
		panic(fmt.Sprintf("caf: image %d already holds lock[%d]", img.ThisImage(), j))
	}
	switch img.opts.Locks {
	case LockNaiveSpin, LockGlobalArray:
		// Probes back off from 200 ns, doubling up to 12.8 µs.
		me, off := int64(img.ThisImage()), l.spinWord(j)
		replayed, ok := img.local.Spin(j-1, off, 200, 200*64, func() (uint64, bool) {
			old, ok := img.atomic(opCAS, j-1, off, 0, me)
			return uint64(old), ok
		})
		img.Stats.Atomics += replayed
		if !ok {
			return StatFailedImage
		}
		img.hold(l.off, j, -1)
	default:
		if img.opts.Locks == LockVendor {
			// The Cray CAF lock path is closed source; we model it as the same
			// queueing discipline plus per-acquisition software bookkeeping,
			// calibrated against the paper's Fig 8/9 gaps (~22%/28%).
			img.Clock().Advance(vendorLockOverheadNs)
		}
		qOff, stat := l.mcsAcquire(j)
		if stat != StatOK {
			return stat
		}
		img.hold(l.off, j, qOff)
	}
	img.Stats.LocksAcquired++
	img.local.NoteLockAcquired("caf.lock", l.off, j, true)
	return StatOK
}

// TryAcquire executes "lock(lck[j], acquired_lock=ok)": it attempts the lock
// once without queueing and reports success.
func (l *Lock) TryAcquire(j int) bool {
	img := l.img
	img.pollFault()
	img.checkImage(j)
	if img.heldAt(l.off, j) >= 0 {
		panic(fmt.Sprintf("caf: image %d already holds lock[%d]", img.ThisImage(), j))
	}
	// One compare-and-swap on the lock word: of the image's mark for the
	// remote-spinning kinds, else of a qnode born a holder (locked := 0,
	// next/prev := nil), since an uncontended try-acquire holds the lock at once.
	mark, qOff := int64(img.ThisImage()), int64(-1)
	if k := img.opts.Locks; k != LockNaiveSpin && k != LockGlobalArray {
		qOff = img.AllocNonSymmetric(qnodeBytes)
		img.local.StoreLocal(qOff, qnodeGranted[:])
		mark = int64(PackRef(img.ThisImage(), qOff, 1))
	}
	old, ok := img.atomic(opCAS, j-1, l.spinWord(j), 0, mark)
	if (!ok || old != 0) && qOff >= 0 {
		img.FreeNonSymmetric(qOff, qnodeBytes)
	}
	if !ok {
		panic(fmt.Sprintf("caf: lock(lck[%d]) involving failed image %d without stat=", j, j))
	}
	if old != 0 {
		return false
	}
	img.hold(l.off, j, qOff)
	img.Stats.LocksAcquired++
	img.local.NoteLockAcquired("caf.lock", l.off, j, false)
	return true
}

// Release executes "unlock(lck[j])". Releasing a lock this image does not
// hold is an error condition and panics; so, without a STAT specifier, is
// the death of the lock's home image.
func (l *Lock) Release(j int) {
	l.img.checkAlive()
	if stat := l.release(j); stat != StatOK {
		panic(fmt.Sprintf("caf: unlock(lck[%d]) involving failed image without stat=: %v", j, stat))
	}
}

// ReleaseStat executes "unlock(lck[j], stat=...)". StatFailedImage reports
// that the lock variable's home image is gone — the lock was still handed to
// any already-queued successor, but no image can enqueue on it again.
func (l *Lock) ReleaseStat(j int) Stat {
	l.img.pollFault()
	return l.release(j)
}

func (l *Lock) release(j int) Stat {
	img := l.img
	img.checkImage(j)
	i := img.heldAt(l.off, j)
	if i < 0 {
		panic(fmt.Sprintf("caf: image %d releasing lock[%d] it does not hold", img.ThisImage(), j))
	}
	qOff := img.held[i].qOff
	stat := StatOK
	switch img.opts.Locks {
	case LockNaiveSpin, LockGlobalArray:
		me := int64(img.ThisImage())
		switch old, ok := img.atomic(opCAS, j-1, l.spinWord(j), me, 0); {
		case !ok:
			stat = StatFailedImage // the home died with the word frozen held
		case old != me:
			panic("caf: spin lock released by non-holder")
		}
	default:
		stat = l.mcsRelease(j, qOff)
	}
	img.held = slices.Delete(img.held, i, i+1)
	img.Stats.LocksReleased++
	img.local.NoteLockReleased("caf.lock", l.off, j)
	return stat
}

// hold enters the lock instance (off, j), which this image now holds, into
// its held-lock table, with its qnode's offset (-1 for the locks that have
// none).
func (img *Image) hold(off int64, j int, qOff int64) {
	img.held = append(img.held, heldLock{off, j, qOff})
}

// heldAt returns the index of the lock instance (off, j) in the image's
// held-lock table, or -1 when the image does not hold it.
func (img *Image) heldAt(off int64, j int) int {
	for i, h := range img.held {
		if h.off == off && h.image == j {
			return i
		}
	}
	return -1
}

// --- MCS queue lock (§IV-D) ---

// mcsAcquire returns the local qnode offset and StatOK when the lock is held,
// or StatFailedImage (no qnode) when the home image is dead.
func (l *Lock) mcsAcquire(j int) (int64, Stat) {
	img := l.img
	pw := img.local.World()

	qOff := img.AllocNonSymmetric(qnodeBytes)
	// locked := 1, next := nil, prev := nil — before publishing the node.
	img.local.StoreLocal(qOff, qnodeInit[:])

	myRef := PackRef(img.ThisImage(), qOff, 1)
	prevRaw, ok := img.atomic(pgas.OpSwap, j-1, l.off, int64(myRef), 0)
	if !ok {
		img.FreeNonSymmetric(qOff, qnodeBytes)
		return 0, StatFailedImage
	}
	prev := RemoteRef(prevRaw)
	// Record the queue order locally; if this image later dies holding the
	// lock, the frozen prev chain is what successors' repair walks read.
	img.storeLocalWord(qOff+16, uint64(prev))
	if prev.IsNil() {
		// Uncontended: we hold the lock. Self-mark granted so a frozen holder
		// node always reads locked==0 — the tombstone the repair walk keys on.
		img.storeLocalWord(qOff, 0)
		return qOff, StatOK
	}
	// Link into the predecessor's next field. If the predecessor died holding
	// the lock after our swap, the put lands on (or is dropped by) a frozen
	// partition — harmless either way, because repair reads only locked/prev.
	img.putWord(prev.Image()-1, prev.Offset()+8, uint64(myRef))
	img.quiet()

	// Local spin with a repair hook: a wake-up that observes more failures
	// than the last repair walk handled hands control back
	// (pgas.ErrWaitRecheck) so the frozen queue can be inspected outside the
	// partition lock. The watermark — not a per-wait call counter — matters:
	// failures that happened *before* this wait began (watermark 0 < count)
	// must trigger a walk on entry, or a waiter enqueued behind an
	// already-dead holder sleeps forever; failures already walked must not
	// retrigger, or a waiter behind a live ancestor busy-spins.
	handled := 0
	for {
		err := img.waitStat(qOff, pgas.CmpEQ, 0, func() error {
			if pw.FailedCount() > handled {
				return pgas.ErrWaitRecheck
			}
			return nil
		})
		if err == nil {
			return qOff, StatOK // granted by the predecessor
		}
		if !errors.Is(err, pgas.ErrWaitRecheck) {
			panic(err) // poisoned world (deadlock, unrelated panic)
		}
		// Snapshot before walking: a failure that lands mid-walk may be missed
		// by the walk but then exceeds the watermark and retriggers it.
		handled = pw.FailedCount()
		if l.repairWalk(prev) {
			// Takeover: the previous holder died and every node between it
			// and us is dead, so we are the first live successor. Self-grant;
			// our own next links are intact, so release proceeds normally.
			img.storeLocalWord(qOff, 0)
			img.Stats.LockTakeovers++
			return qOff, StatOK
		}
		// A live ancestor still queues before us; its grant will arrive.
	}
}

// repairWalk inspects the frozen predecessor chain and reports whether this
// image should take the lock over. Walks that meet a live predecessor return
// false without communication (their count is real-time-dependent, so they
// must be free in virtual time); walks that meet a dead node issue charged
// forensic reads and end in takeover, which happens at most once per failed
// holder — keeping chaos-run virtual times deterministic.
func (l *Lock) repairWalk(prev RemoteRef) bool {
	img := l.img
	pw := img.local.World()
	cur := prev
	for {
		if cur.IsNil() {
			return true // defensive: chain ended without a live owner
		}
		owner := cur.Image() - 1
		if !pw.Failed(owner) {
			return false // a live ancestor will grant eventually
		}
		if img.readWordStat(owner, cur.Offset()) == 0 {
			return true // frozen holder tombstone: we inherit the lock
		}
		// A frozen *waiting* node is unreachable in the current model (a
		// blocked image cannot execute FAIL IMAGE), but following its
		// recorded prev keeps the walk correct if that ever changes.
		cur = RemoteRef(img.readWordStat(owner, cur.Offset()+16))
	}
}

func (l *Lock) mcsRelease(j int, qOff int64) Stat {
	img := l.img

	myRef := PackRef(img.ThisImage(), qOff, 1)
	// No visible successor? Try to detach the queue.
	next := RemoteRef(img.localWord(qOff + 8))
	stat := StatOK
	if next.IsNil() {
		old, ok := img.atomic(opCAS, j-1, l.off, int64(myRef), 0)
		switch {
		case !ok:
			// The home image died while we held the lock. Its frozen tail
			// still orders the queue: if it is us, nobody enqueued before the
			// death (and nobody can after — swaps on a dead home fail), so
			// the lock retires with its home.
			if RemoteRef(img.readWordStat(j-1, l.off)) == myRef {
				img.FreeNonSymmetric(qOff, qnodeBytes)
				return StatFailedImage
			}
			// A successor swapped in before the home died; it will link
			// itself (no fault points between its swap and its link). Hand
			// over below, but report the home's death.
			stat = StatFailedImage
		case RemoteRef(old) == myRef:
			img.FreeNonSymmetric(qOff, qnodeBytes)
			return StatOK
		}
		// A successor is enqueueing; wait for it to link itself. It cannot
		// die mid-protocol, so the link always arrives.
		img.wait(qOff+8, pgas.CmpNE, 0)
		next = RemoteRef(img.localWord(qOff + 8))
	}
	// Hand over: reset the successor's locked field. The successor is alive
	// (blocked images cannot fail), so an ordinary put reaches it.
	img.putWord(next.Image()-1, next.Offset(), 0)
	img.quiet()
	img.FreeNonSymmetric(qOff, qnodeBytes)
	return stat
}

// readWordStat is the repair walk's charged forensic read of the 64-bit word
// at (target, off), which also reads a failed image's frozen partition.
func (img *Image) readWordStat(target int, off int64) uint64 {
	op := img.xfer(true, target, off, img.word[:])
	op.Shape = pgas.Forensic
	img.issue(op)
	return pgas.Load[uint64](img.word[:])
}

// --- Remote-spinning comparators (ablation) ---

func (l *Lock) spinWord(j int) int64 {
	if l.img.opts.Locks == LockGlobalArray {
		return l.off + int64(j-1)*8
	}
	return l.off
}
