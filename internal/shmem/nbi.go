package shmem

import "cafshmem/internal/pgas"

// Nonblocking RMA (OpenSHMEM 1.3 shmem_put_nbi). A nonblocking call charges
// only the injection overhead on the initiator and hands the transfer to the
// PE's per-destination completion streams (fabric.NBIStreams): the bytes
// occupy the NIC from its next idle moment and complete one delivery latency
// later. Quiet advances the clock to the latest outstanding completion
// (QuietTarget to one destination's), so compute issued between post and
// Quiet genuinely overlaps communication. A layered runtime issues the other
// nonblocking shapes — gets, vectored, strided and signal puts — through
// PE.RMA.
//
// Contract (the real library's, enforced by the runtime sanitizer):
//
//   - the source buffer of PutMemNBI must not be modified until Quiet;
//   - the destination of a nonblocking get is undefined until Quiet;
//   - remote visibility of a nonblocking put requires Quiet.
//
// In the simulator the data lands in the target partition immediately with a
// visibility timestamp equal to the op's completion time (the substrate's
// deferred-visibility write), so WaitUntil/watch determinism is untouched.

// PutMemNBI starts a nonblocking contiguous put (shmem_putmem_nbi). The
// source buffer must stay unmodified until Quiet: the sanitizer compares it
// at Quiet with the snapshot it took at issue.
func (pe *PE) PutMemNBI(target int, sym Sym, off int64, data []byte) {
	pe.issue(&pgas.RMA{Target: target, Off: off, Local: data}, sym, true, data)
}

// QuietStat is Quiet with fault status: when any PE with in-flight
// nonblocking ops has failed, the drain completes (writes to a frozen
// partition were silently dropped by the substrate) and the fault is returned
// instead of being lost — the hook the CAF runtime's SYNC MEMORY stat form
// needs. A nil return means every outstanding op targeted a live PE. It
// completes exactly what Quiet completes.
//
// Destinations this PE has declared unreachable (retry exhaustion on a lossy
// link) are folded into the returned fault as failed PEs — the sender cannot
// distinguish a dead link from a dead peer, and both map to
// STAT_FAILED_IMAGE upstairs.
func (pe *PE) QuietStat() error { return pe.quiet(-1, true) }

// QuietTargetStat is QuietTarget with fault status, reporting whether the
// drained destination had failed (its writes were dropped by the substrate)
// or had been declared unreachable after retry exhaustion.
func (pe *PE) QuietTargetStat(target int) error {
	pe.checkTarget(target)
	return pe.quiet(target, true)
}
