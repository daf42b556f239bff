package shmem

import "cafshmem/internal/pgas"

// Nonblocking RMA (OpenSHMEM 1.3 shmem_put_nbi / shmem_get_nbi and this
// library's vectored/strided extensions). A nonblocking call charges only the
// injection overhead on the initiator and hands the transfer to the PE's
// per-destination completion streams (fabric.NBIStreams): the bytes occupy
// the NIC from its next idle moment and complete one delivery latency later.
// Quiet advances the clock to the latest outstanding completion (QuietTarget
// to one destination's), so compute issued between post and Quiet genuinely
// overlaps communication.
//
// Contract (the real library's, enforced by the runtime sanitizer):
//
//   - the source buffer of a *_NBI put must not be modified until Quiet;
//   - the destination of a GetNBI is undefined until Quiet;
//   - remote visibility of a *_NBI put requires Quiet — Fence orders puts
//     but does NOT complete nonblocking ones.
//
// In the simulator the data lands in the target partition immediately with a
// visibility timestamp equal to the op's completion time (the substrate's
// deferred-visibility write), so WaitUntil/watch determinism is untouched.

// PutMemNBI starts a nonblocking contiguous put (shmem_putmem_nbi) on the
// default context. The source buffer must stay unmodified until Quiet.
func (pe *PE) PutMemNBI(target int, sym Sym, off int64, data []byte) {
	pe.def.PutMemNBI(target, sym, off, data)
}

// GetMemNBI starts a nonblocking contiguous get (shmem_getmem_nbi) on the
// default context. dst is undefined until Quiet.
func (pe *PE) GetMemNBI(target int, sym Sym, off int64, dst []byte) {
	pe.def.GetMemNBI(target, sym, off, dst)
}

// PutMemVNBI is the nonblocking vectored multi-run put: the nonblocking
// sibling of PutMemV. Each run charges one injection overhead; the runs'
// transfers serialise on the NIC. src must stay unmodified until Quiet.
func (pe *PE) PutMemVNBI(target int, sym Sym, offs []int64, runBytes int, src []byte) {
	pe.def.issue(&pgas.RMA{Shape: pgas.Runs, Target: target, Local: src, Offs: offs, Unit: runBytes}, sym, nbi, src)
}

// IPutMemNBI is the nonblocking byte-level 1-D strided put: the nonblocking
// sibling of IPutMem. The initiator pays the CPU share of the strided issue
// (one descriptor in hardware mode, one per element in loop mode — §V-B2's
// distinction survives overlap); descriptor walking and byte streaming occupy
// the NIC asynchronously.
func (pe *PE) IPutMemNBI(target int, sym Sym, off, dstStrideBytes int64, elemSize int, src []byte) {
	pe.def.issue(&pgas.RMA{Shape: pgas.Strided, Target: target, Off: off, Local: src, Unit: elemSize, Stride: dstStrideBytes}, sym, nbi|locality, src)
}

// IGetMemNBI is the nonblocking byte-level 1-D strided get. dst is undefined
// until Quiet.
func (pe *PE) IGetMemNBI(target int, sym Sym, off, srcStrideBytes int64, elemSize int, dst []byte) {
	pe.def.issue(&pgas.RMA{Get: true, Shape: pgas.Strided, Target: target, Off: off, Local: dst, Unit: elemSize, Stride: srcStrideBytes}, sym, nbi|locality, nil)
}

// PutNBI starts a nonblocking typed put (the shmem_put_nbi family). vals must
// stay unmodified until Quiet: the put streams vals' own bytes, and those are
// what the sanitizer compares at Quiet with the snapshot it took at issue.
func PutNBI[T pgas.Elem](pe *PE, target int, sym Sym, idx int, vals []T) {
	pe.PutMemNBI(target, sym, int64(idx)*int64(pgas.SizeOf[T]()), pgas.Bytes(vals))
}

// GetNBI starts a nonblocking typed get into dst (the shmem_get_nbi family).
// dst is undefined until Quiet.
func GetNBI[T pgas.Elem](pe *PE, target int, sym Sym, idx int, dst []T) {
	pe.GetMemNBI(target, sym, int64(idx)*int64(pgas.SizeOf[T]()), pgas.Bytes(dst))
}

// NBIOutstanding returns the number of nonblocking ops issued on the default
// context since the last Quiet (observability and tests).
func (pe *PE) NBIOutstanding() int { return pe.def.nbi.Outstanding() }

// QuietStat is Quiet with fault status: when any PE with in-flight
// nonblocking ops has failed, the drain completes (writes to a frozen
// partition were silently dropped by the substrate) and the fault is returned
// instead of being lost — the hook the CAF runtime's SYNC MEMORY stat form
// needs. A nil return means every outstanding op targeted a live PE.
//
// QuietStat completes exactly what Quiet completes: the default context's
// streams and the blocking horizon — never a created context's streams (those
// are Ctx.QuietStat's job). The two stat paths therefore agree with their
// non-stat forms on which streams they drain.
//
// Destinations this PE has declared unreachable (retry exhaustion on a lossy
// link) are folded into the returned fault as failed PEs — the sender cannot
// distinguish a dead link from a dead peer, and both map to
// STAT_FAILED_IMAGE upstairs.
func (pe *PE) QuietStat() error { return pe.def.QuietStat() }

// QuietTargetStat is QuietTarget with fault status, reporting whether the
// drained destination had failed (its writes were dropped by the substrate)
// or had been declared unreachable after retry exhaustion.
func (pe *PE) QuietTargetStat(target int) error {
	pe.checkTarget(target)
	return pe.def.quiet(target, true)
}
