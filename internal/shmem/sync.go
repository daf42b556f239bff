package shmem

import (
	"cafshmem/internal/pgas"
)

// Quiet waits for remote completion of all puts and atomics this PE has
// issued — shmem_quiet. In virtual time this merges the clock with the latest
// outstanding visibility timestamp. The paper's translation inserts Quiet
// after puts and before gets to restore CAF's ordering semantics (§IV-B).
//
// Under a lossy fault plan Quiet is also the legacy escalation point for
// retry exhaustion: if any destination has been declared unreachable, the
// drain still completes and then the world error-terminates (QuietStat is
// the form that reports the condition instead).
func (pe *PE) Quiet() { _ = pe.quiet(-1, false) } // no stat: nothing to report

// QuietTarget waits for remote completion of this PE's puts toward target
// only: the per-destination quiet. Other destinations' transfers stay in
// flight: their completion horizon, and the shared NIC pipe's residual
// occupancy, are untouched. A later Quiet still waits for every other
// destination — per-target completion never relaxes the blocking path. Like
// Quiet it error-terminates on a link to target given up after retry
// exhaustion (QuietTargetStat reports it instead).
func (pe *PE) QuietTarget(target int) {
	pe.checkTarget(target)
	_ = pe.quiet(target, false) // no stat: nothing to report
}

// quiet completes the PE's ops toward target, or toward every destination
// when target is negative; with stat it reports instead of escalating. With
// nothing nonblocking outstanding the streams drain to 0 and the blocking
// path is bit-identical to the pre-NBI model.
func (pe *PE) quiet(target int, stat bool) error {
	return pe.p.Complete(&pe.nbi, &pe.blocking, target, pe.world.prof.OverheadNs, stat)
}

// Barrier synchronises all PEs and completes outstanding communication —
// shmem_barrier_all.
func (pe *PE) Barrier() {
	pe.Quiet()
	pe.p.Barrier(pe.world.barrierNs(), pgas.Call{Op: "Barrier"})
}

// Cmp is a wait-until comparison operator (shmem_wait_until): the substrate's
// typed word comparison under its OpenSHMEM names.
type Cmp = pgas.Cmp

const (
	CmpEQ = pgas.CmpEQ
	CmpNE = pgas.CmpNE
	CmpGT = pgas.CmpGT
	CmpGE = pgas.CmpGE
	CmpLT = pgas.CmpLT
	CmpLE = pgas.CmpLE
)

// WaitUntil64 blocks until the local 64-bit word at element index idx of sym
// satisfies cmp against value — shmem_long_wait_until. It returns once the
// write that satisfied the condition is (virtually) visible, merging its
// timestamp into the PE's clock.
func (pe *PE) WaitUntil64(sym Sym, idx int, cmp Cmp, value int64) {
	_, ts := pe.p.WaitWord(pe.wordOff("wait_until", sym, idx), cmp, value)
	pe.p.Clock.MergeAtLeast(ts)
	pe.p.Clock.Advance(pe.world.prof.OverheadNs) // poll loop exit cost
}
