package shmem

// OpenSHMEM global logical locks (shmem_set_lock / shmem_clear_lock /
// shmem_test_lock). A lock variable is a symmetric 64-bit word, but the lock
// it names is a single global entity — there is no notion of "the lock at
// PE j". That is exactly why the paper cannot use these for CAF's
// lock(lck[j]) statement and instead builds an MCS lock in the CAF runtime
// (§IV-D): emulating per-image locks here would need an N-element lock array
// per lock variable.
//
// The implementation follows the common practice of homing the lock state on
// a PE derived from the symmetric address, with compare-and-swap acquisition
// and bounded exponential backoff (pgas.PE.Spin).

func lockHome(sym Sym, idx, npes int) int {
	return int((sym.Off/8 + int64(idx)) % int64(npes))
}

// SetLock acquires the global lock named by the symmetric word (blocking),
// backing off one to sixteen wire latencies after a failed probe.
func (pe *PE) SetLock(sym Sym, idx int) {
	home := lockHome(sym, idx, pe.NumPEs())
	me := int64(pe.MyPE()) + 1 // 0 means unlocked
	lat := pe.world.prof.LatencyNs
	if _, ok := pe.p.Spin(home, pe.wordOff("set_lock", sym, idx), lat, 16*lat, func() (uint64, bool) {
		old, ok := pe.CompareSwapStat(home, sym, idx, 0, me)
		return uint64(old), ok
	}); !ok {
		panic("shmem: set_lock on a lock whose home PE has failed")
	}
	pe.p.NoteLockAcquired("shmem.lock", sym.Off, idx, true)
}

// TestLock attempts the lock once; it returns true if acquired.
func (pe *PE) TestLock(sym Sym, idx int) bool {
	home := lockHome(sym, idx, pe.NumPEs())
	me := int64(pe.MyPE()) + 1
	if pe.CompareSwap(home, sym, idx, 0, me) == 0 {
		pe.p.NoteLockAcquired("shmem.lock", sym.Off, idx, false)
		return true
	}
	return false
}

// ClearLock releases the global lock. The caller must hold it.
func (pe *PE) ClearLock(sym Sym, idx int) {
	home := lockHome(sym, idx, pe.NumPEs())
	me := int64(pe.MyPE()) + 1
	if old := pe.CompareSwap(home, sym, idx, me, 0); old != me {
		panic("shmem: ClearLock by non-holder")
	}
	pe.p.NoteLockReleased("shmem.lock", sym.Off, idx)
}
