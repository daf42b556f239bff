package shmem

import (
	"cafshmem/internal/pgas"
)

// Quiet waits for remote completion of all puts and atomics this PE has
// issued on the default context — shmem_quiet. In virtual time this merges
// the clock with the latest outstanding visibility timestamp. The paper's
// translation inserts Quiet after puts and before gets to restore CAF's
// ordering semantics (§IV-B).
//
// Per OpenSHMEM 1.4 semantics, Quiet does NOT complete operations issued on
// created contexts — each Ctx has its own Quiet.
//
// Under a lossy fault plan Quiet is also the legacy escalation point for
// retry exhaustion: if any destination has been declared unreachable, the
// drain still completes and then the world error-terminates (QuietStat is
// the form that reports the condition instead).
func (pe *PE) Quiet() { pe.def.Quiet() }

// QuietTarget waits for remote completion of this PE's default-context puts
// and atomics toward target only — the per-destination quiet that contexts
// make expressible (a shmem_ctx_quiet on a context carrying one destination's
// traffic). Other destinations' transfers stay in flight: their completion
// horizon, and the shared NIC pipe's residual occupancy, are untouched.
func (pe *PE) QuietTarget(target int) { pe.def.QuietTarget(target) }

// Fence orders this PE's puts to each destination — shmem_fence. Weaker than
// Quiet: ordering per target, not global completion. The substrate applies
// writes in issue order per target already, so only the call overhead is
// charged. Fence does NOT complete nonblocking (PutNBI/GetNBI) operations —
// per the OpenSHMEM 1.3 memory model only Quiet does.
func (pe *PE) Fence() {
	pe.p.Clock.Advance(pe.world.prof.OverheadNs)
}

// Barrier synchronises all PEs and completes outstanding communication —
// shmem_barrier_all.
func (pe *PE) Barrier() {
	pe.Quiet()
	w := pe.world
	pe.p.RecordCollective("Barrier")
	pe.p.Barrier(w.barrierNs())
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

// SignalWaitUntil blocks until the local 64-bit signal word at element index
// idx of sig satisfies cmp against value and returns the satisfying signal
// value — shmem_signal_wait_until (OpenSHMEM 1.5). Combined with PutSignal /
// PutSignalNBI it is the consumer half of signal-driven synchronisation: the
// producer's data is visible once the signal is (signal-mediated completion),
// so neither side needs a barrier or a global quiet.
func (pe *PE) SignalWaitUntil(sig Sym, idx int, cmp Cmp, value int64) int64 {
	got, ts := pe.p.WaitWord(pe.wordOff("signal_wait_until", sig, idx), cmp, value)
	pe.p.Clock.MergeAtLeast(ts)
	pe.p.Clock.Advance(pe.world.prof.OverheadNs)
	return got
}

// WaitUntilStat is SignalWaitUntil with Fortran-2018-style fault awareness:
// it watches the listed producer PEs and, if any of them fails — or gives up
// its link to this PE after retry exhaustion on a lossy fabric — while the
// wait is still unsatisfied, returns the fault instead of hanging on a
// signal that can never arrive. A signal that did arrive wins even if its
// producer died afterwards — the data it advertises is already delivered.
// The last observed signal value is returned in both cases.
func (pe *PE) WaitUntilStat(sig Sym, idx int, cmp Cmp, value int64, producers ...int) (int64, error) {
	got, ts, err := pe.p.WaitWordStat(pe.wordOff("signal_wait_until", sig, idx), cmp, value, func() error {
		var failed []int
		for _, pr := range producers {
			if pe.world.pw.Failed(pr) || pe.world.pw.Unreachable(pr, pe.p.ID) {
				failed = append(failed, pr)
			}
		}
		if len(failed) > 0 {
			return &pgas.ImageFault{Failed: failed}
		}
		return nil
	})
	if err != nil {
		return got, err
	}
	pe.p.Clock.MergeAtLeast(ts)
	pe.p.Clock.Advance(pe.world.prof.OverheadNs)
	return got, nil
}
