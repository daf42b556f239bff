package caf

import (
	"fmt"

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
// locks has M (+1 while acquiring) live qnodes, tracked in the held-lock
// hash table keyed by (lock, image) — exactly the bookkeeping of §IV-D.
type Lock struct {
	img *Image
	off int64 // symmetric offset: word 0 = MCS tail / spin word, word 1 = vendor state
	n   int64 // allocation size (for Deallocate)
}

type lockKey struct {
	off   int64
	image int
}

const qnodeBytes = 16 // [0:8] locked flag, [8:16] packed next pointer

// qnodeInit is the image of a freshly enqueued qnode — locked := 1 and every
// pointer word nil — long enough for the fault-tolerant layout (lockstat.go).
// Read-only: StoreLocal copies out of it.
var qnodeInit = [ftQnodeBytes]byte{0: 1}

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
// the held-lock hash-table lookup the runtime performs for lock/unlock.
func (l *Lock) Holds(j int) bool {
	_, ok := l.img.held[lockKey{l.off, j}]
	return ok
}

// Acquire executes "lock(lck[j])", blocking until the lock instance at image
// j (1-based) is held. Acquiring a lock this image already holds is an error
// condition in the standard and panics here.
func (l *Lock) Acquire(j int) {
	img := l.img
	img.pollFault()
	img.checkImage(j)
	key := lockKey{l.off, j}
	if _, held := img.held[key]; held {
		panic(fmt.Sprintf("caf: image %d already holds lock[%d]", img.ThisImage(), j))
	}
	switch img.opts.Locks {
	case LockNaiveSpin, LockGlobalArray:
		l.spinAcquire(j)
		img.held[key] = -1
	case LockVendor:
		// The Cray CAF lock path is closed source; we model it as the same
		// queueing discipline plus per-acquisition software bookkeeping,
		// calibrated against the paper's Fig 8/9 gaps (~22%/28%).
		img.Clock().Advance(vendorLockOverheadNs)
		img.held[key] = l.mcsAcquireAny(j)
	default:
		img.held[key] = l.mcsAcquireAny(j)
	}
	img.Stats.LocksAcquired++
	img.local.NoteLockAcquired("caf.lock", l.off, j, true)
}

// TryAcquire executes "lock(lck[j], acquired_lock=ok)": it attempts the lock
// once without queueing and reports success.
func (l *Lock) TryAcquire(j int) bool {
	img := l.img
	img.pollFault()
	img.checkImage(j)
	key := lockKey{l.off, j}
	if _, held := img.held[key]; held {
		panic(fmt.Sprintf("caf: image %d already holds lock[%d]", img.ThisImage(), j))
	}
	switch img.opts.Locks {
	case LockNaiveSpin, LockGlobalArray:
		if l.spinTry(j) {
			img.held[key] = -1
			img.Stats.LocksAcquired++
			img.local.NoteLockAcquired("caf.lock", l.off, j, false)
			return true
		}
		return false
	default:
		nBytes := int64(qnodeBytes)
		if img.ftMode {
			nBytes = ftQnodeBytes
		}
		qOff := img.AllocNonSymmetric(nBytes)
		p := img.local
		// locked := 0 (an uncontended try-acquire holds the lock at once, so
		// the node is born a holder), next/prev := nil.
		p.StoreLocal(qOff, make([]byte, nBytes))
		myRef := PackRef(img.ThisImage(), qOff, 1)
		old, ok := img.atomic(opCAS, j-1, l.off, 0, int64(myRef), img.ftMode)
		if !ok {
			img.FreeNonSymmetric(qOff, nBytes)
			panic(fmt.Sprintf("caf: lock(lck[%d]) involving failed image %d without stat=", j, j))
		}
		if old != 0 {
			img.FreeNonSymmetric(qOff, nBytes)
			return false
		}
		img.held[key] = qOff
		img.Stats.LocksAcquired++
		img.local.NoteLockAcquired("caf.lock", l.off, j, false)
		return true
	}
}

// Release executes "unlock(lck[j])". Releasing a lock this image does not
// hold is an error condition and panics.
func (l *Lock) Release(j int) {
	img := l.img
	img.checkAlive()
	img.checkImage(j)
	key := lockKey{l.off, j}
	qOff, held := img.held[key]
	if !held {
		panic(fmt.Sprintf("caf: image %d releasing lock[%d] it does not hold", img.ThisImage(), j))
	}
	switch img.opts.Locks {
	case LockNaiveSpin, LockGlobalArray:
		l.spinRelease(j)
	case LockVendor:
		l.mcsReleaseAny(j, qOff)
	default:
		l.mcsReleaseAny(j, qOff)
	}
	delete(img.held, key)
	img.Stats.LocksReleased++
	img.local.NoteLockReleased("caf.lock", l.off, j)
}

// mcsAcquireAny dispatches between the classic two-word MCS protocol and the
// repairable ftMode protocol. Without a STAT specifier, involvement of a
// failed image in a LOCK statement is error termination, as the standard
// requires — rendered here as a world-poisoning panic instead of a hang.
func (l *Lock) mcsAcquireAny(j int) int64 {
	if l.img.ftMode {
		qOff, stat := l.ftAcquire(j)
		if stat != StatOK {
			panic(fmt.Sprintf("caf: lock(lck[%d]) involving failed image without stat=: %v", j, stat))
		}
		return qOff
	}
	return l.mcsAcquire(j)
}

func (l *Lock) mcsReleaseAny(j int, qOff int64) {
	if l.img.ftMode {
		if stat := l.ftRelease(j, qOff); stat != StatOK {
			panic(fmt.Sprintf("caf: unlock(lck[%d]) involving failed image without stat=: %v", j, stat))
		}
		return
	}
	l.mcsRelease(j, qOff)
}

// --- MCS queue lock (§IV-D) ---

func (l *Lock) mcsAcquire(j int) int64 {
	img := l.img

	qOff := img.AllocNonSymmetric(qnodeBytes)
	// locked := 1, next := nil — before publishing the node.
	img.local.StoreLocal(qOff, qnodeInit[:qnodeBytes])

	myRef := PackRef(img.ThisImage(), qOff, 1)
	prev := RemoteRef(img.amo(pgas.OpSwap, j-1, l.off, int64(myRef), 0))
	if !prev.IsNil() {
		// Link into the predecessor's next field, then spin locally until the
		// predecessor hands the lock over.
		img.putWord(prev.Image()-1, prev.Offset()+8, uint64(myRef))
		img.quiet()
		img.wait(qOff, pgas.CmpEQ, 0)
	}
	return qOff
}

func (l *Lock) mcsRelease(j int, qOff int64) {
	img := l.img

	myRef := PackRef(img.ThisImage(), qOff, 1)
	// No visible successor? Try to detach the queue.
	next := RemoteRef(img.localWord(qOff + 8))
	if next.IsNil() {
		old := RemoteRef(img.amo(opCAS, j-1, l.off, int64(myRef), 0))
		if old == myRef {
			img.FreeNonSymmetric(qOff, qnodeBytes)
			return
		}
		// A successor is enqueueing; wait for it to link itself.
		img.wait(qOff+8, pgas.CmpNE, 0)
		next = RemoteRef(img.localWord(qOff + 8))
	}
	// Hand over: reset the successor's locked field.
	img.putWord(next.Image()-1, next.Offset(), 0)
	img.quiet()
	img.FreeNonSymmetric(qOff, qnodeBytes)
}

// --- Remote-spinning comparators (ablation) ---

func (l *Lock) spinWord(j int) int64 {
	if l.img.opts.Locks == LockGlobalArray {
		return l.off + int64(j-1)*8
	}
	return l.off
}

func (l *Lock) spinAcquire(j int) {
	img := l.img
	me := int64(img.ThisImage())
	backoff := 1.0
	for {
		if img.amo(opCAS, j-1, l.spinWord(j), 0, me) == 0 {
			return
		}
		img.Clock().Advance(backoff * 200)
		if backoff < 64 {
			backoff *= 2
		}
		img.local.Yield()
	}
}

func (l *Lock) spinTry(j int) bool {
	img := l.img
	me := int64(img.ThisImage())
	return img.amo(opCAS, j-1, l.spinWord(j), 0, me) == 0
}

func (l *Lock) spinRelease(j int) {
	img := l.img
	me := int64(img.ThisImage())
	if img.amo(opCAS, j-1, l.spinWord(j), me, 0) != me {
		panic("caf: spin lock released by non-holder")
	}
}
