package caf

import (
	"errors"
	"fmt"

	"cafshmem/internal/pgas"
)

// Fault-tolerant MCS lock (fail.go's companion to §IV-D). In ftMode the
// qnode grows a third word recording which node this image enqueued behind:
//
//	[0:8]  locked flag (1 = waiting, 0 = holds/held the lock)
//	[8:16] packed next pointer (filled by the successor's link put)
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
// then on.
const ftQnodeBytes = 24

// AcquireStat executes "lock(lck[j], stat=...)": like Acquire, but if the
// lock's home image j has failed the acquisition is abandoned with
// StatFailedImage instead of error termination, and a failed previous holder
// is recovered from transparently (the takeover path). StatOK means the lock
// is held.
func (l *Lock) AcquireStat(j int) Stat {
	img := l.img
	img.pollFault()
	img.checkImage(j)
	key := lockKey{l.off, j}
	if _, held := img.held[key]; held {
		panic(fmt.Sprintf("caf: image %d already holds lock[%d]", img.ThisImage(), j))
	}
	if !img.ftMode || (img.opts.Locks != LockMCS && img.opts.Locks != LockVendor) {
		// Without fault tolerance (or with the remote-spinning ablation
		// algorithms) there is no recoverable path: fall back to the blocking
		// acquire, whose failure mode is the deadlock report.
		l.Acquire(j)
		return StatOK
	}
	if img.opts.Locks == LockVendor {
		img.Clock().Advance(vendorLockOverheadNs)
	}
	qOff, stat := l.ftAcquire(j)
	if stat != StatOK {
		return stat
	}
	img.held[key] = qOff
	img.Stats.LocksAcquired++
	img.local.NoteLockAcquired("caf.lock", l.off, j, true)
	return StatOK
}

// ReleaseStat executes "unlock(lck[j], stat=...)". StatFailedImage reports
// that the lock variable's home image is gone — the lock was still handed to
// any already-queued successor, but no image can enqueue on it again.
func (l *Lock) ReleaseStat(j int) Stat {
	img := l.img
	img.pollFault()
	img.checkImage(j)
	key := lockKey{l.off, j}
	qOff, held := img.held[key]
	if !held {
		panic(fmt.Sprintf("caf: image %d releasing lock[%d] it does not hold", img.ThisImage(), j))
	}
	if !img.ftMode || (img.opts.Locks != LockMCS && img.opts.Locks != LockVendor) {
		l.Release(j)
		return StatOK
	}
	stat := l.ftRelease(j, qOff)
	delete(img.held, key)
	img.Stats.LocksReleased++
	img.local.NoteLockReleased("caf.lock", l.off, j)
	return stat
}

// ftAcquire is the repairable MCS acquire. It returns the local qnode offset
// and StatOK when the lock is held, or StatFailedImage (no qnode) when the
// home image is dead.
func (l *Lock) ftAcquire(j int) (int64, Stat) {
	img := l.img
	p := img.local
	pw := p.World()

	qOff := img.AllocNonSymmetric(ftQnodeBytes)
	// locked := 1, next := nil, prev := nil — before publishing the node.
	p.StoreLocal(qOff, qnodeInit[:])

	myRef := PackRef(img.ThisImage(), qOff, 1)
	prevRaw, ok := img.atomic(pgas.OpSwap, j-1, l.off, int64(myRef), 0, true)
	if !ok {
		img.FreeNonSymmetric(qOff, ftQnodeBytes)
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

// ftRelease is the repairable MCS release.
func (l *Lock) ftRelease(j int, qOff int64) Stat {
	img := l.img

	myRef := PackRef(img.ThisImage(), qOff, 1)
	next := RemoteRef(img.localWord(qOff + 8))
	stat := StatOK
	if next.IsNil() {
		old, ok := img.atomic(opCAS, j-1, l.off, int64(myRef), 0, true)
		switch {
		case !ok:
			// The home image died while we held the lock. Its frozen tail
			// still orders the queue: if it is us, nobody enqueued before the
			// death (and nobody can after — swaps on a dead home fail), so
			// the lock retires with its home.
			if RemoteRef(img.readWordStat(j-1, l.off)) == myRef {
				img.FreeNonSymmetric(qOff, ftQnodeBytes)
				return StatFailedImage
			}
			// A successor swapped in before the home died; it will link
			// itself (no fault points between its swap and its link). Hand
			// over below, but report the home's death.
			stat = StatFailedImage
		case RemoteRef(old) == myRef:
			img.FreeNonSymmetric(qOff, ftQnodeBytes)
			return StatOK
		}
		// Wait for the in-flight successor's link. The successor cannot die
		// mid-protocol, so the link always arrives.
		if err := img.waitStat(qOff+8, pgas.CmpNE, 0, nil); err != nil {
			panic(err)
		}
		next = RemoteRef(img.localWord(qOff + 8))
	}
	// Hand over: reset the successor's locked field. The successor is alive
	// (blocked images cannot fail), so an ordinary put reaches it.
	img.putWord(next.Image()-1, next.Offset(), 0)
	img.quiet()
	img.FreeNonSymmetric(qOff, ftQnodeBytes)
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
