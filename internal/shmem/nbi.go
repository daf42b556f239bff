package shmem

import (
	"fmt"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// Nonblocking RMA (OpenSHMEM 1.3 shmem_put_nbi / shmem_get_nbi and this
// library's vectored/strided extensions). A nonblocking call charges only the
// injection overhead on the initiator and hands the transfer to the PE's
// per-destination completion streams (fabric.NBIStreams): the bytes occupy
// the NIC from its next idle moment and complete one delivery latency later.
// Quiet advances the clock to the latest outstanding completion (QuietTarget
// to one destination's), so compute issued between post and Quiet genuinely
// overlaps communication.
//
// Contract (the real library's, enforced by shmemvet and the sanitizer):
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
	pe.putMemNBI(&pe.nbi, 0, target, sym, off, data)
}

// putMemNBI is the shared nonblocking-put core for the default context and
// created contexts: streams selects whose completion streams the op rides,
// ctx its sanitizer scope.
func (pe *PE) putMemNBI(streams *fabric.NBIStreams, ctx int, target int, sym Sym, off int64, data []byte) {
	pe.checkTarget(target)
	if len(data) == 0 {
		return
	}
	if off < 0 || off+int64(len(data)) > sym.Size {
		panic(fmt.Sprintf("shmem: put_nbi of %d bytes at offset %d overflows %d-byte symmetric object", len(data), off, sym.Size))
	}
	if san := pe.world.san; san != nil {
		san.recordPutNBI(pe.p.ID, ctx, target, sym.Off+off, int64(len(data)), data)
	}
	pe.linkPenalty()
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	pe.p.Clock.Advance(prof.NBIInjectNs())
	transfer := prof.NBITransferNs(len(data), intra, pairs)
	lat := prof.DeliveryNs(intra, pairs)
	if pe.lossy(target) {
		// The op occupies the shared pipe exactly as on the native path; its
		// completion (what Quiet waits for) is the protocol's ack horizon,
		// and the payload lands at its first successful delivery.
		streams.IssueAt(target, pe.p.Clock.Now(), transfer, func(wire float64) float64 {
			done, _ := pe.reliableSend(target, wire, lat, func(at float64) {
				pe.world.pw.Write(target, sym.Off+off, data, at)
			})
			return done
		})
		return
	}
	done := streams.Issue(target, pe.p.Clock.Now(), transfer, lat)
	pe.world.pw.Write(target, sym.Off+off, data, done)
}

// GetMemNBI starts a nonblocking contiguous get (shmem_getmem_nbi) on the
// default context. dst is undefined until Quiet.
func (pe *PE) GetMemNBI(target int, sym Sym, off int64, dst []byte) {
	pe.getMemNBI(&pe.nbi, target, sym, off, dst)
}

// getMemNBI is the shared nonblocking-get core. The modelled completion pays
// the request round trip plus the data streaming back; the host-side copy
// happens at issue, which is a legal serialisation of the
// undefined-until-quiet window (the simulator always resolves it to "request
// served immediately").
func (pe *PE) getMemNBI(streams *fabric.NBIStreams, target int, sym Sym, off int64, dst []byte) {
	pe.checkTarget(target)
	if len(dst) == 0 {
		return
	}
	if off < 0 || off+int64(len(dst)) > sym.Size {
		panic(fmt.Sprintf("shmem: get_nbi of %d bytes at offset %d overflows %d-byte symmetric object", len(dst), off, sym.Size))
	}
	if san := pe.world.san; san != nil {
		san.checkRead(pe.p.ID, target, sym.Off+off, int64(len(dst)))
	}
	pe.linkPenalty()
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	pe.p.Clock.Advance(prof.NBIInjectNs())
	transfer := prof.NBITransferNs(len(dst), intra, pairs)
	if pe.lossy(target) {
		// Request/response both ride the protocol (the response is the ack);
		// on exhaustion the give-up horizon is recorded and the next legacy
		// Quiet error-terminates (QuietStat reports instead).
		lat := prof.DeliveryNs(intra, pairs)
		streams.IssueAt(target, pe.p.Clock.Now(), transfer, func(wire float64) float64 {
			done, _ := pe.reliableSend(target, wire, lat, nil)
			return done
		})
		pe.world.pw.Read(target, sym.Off+off, dst)
		return
	}
	streams.Issue(target, pe.p.Clock.Now(), transfer,
		2*prof.DeliveryNs(intra, pairs))
	pe.world.pw.Read(target, sym.Off+off, dst)
}

// PutMemVNBI is the nonblocking vectored multi-run put: the nonblocking
// sibling of PutMemV. Each run charges one injection overhead; the runs'
// transfers serialise on the NIC. src must stay unmodified until Quiet.
func (pe *PE) PutMemVNBI(target int, sym Sym, offs []int64, runBytes int, src []byte) {
	pe.checkTarget(target)
	if runBytes <= 0 || len(src) != len(offs)*runBytes {
		panic("shmem: putmemv_nbi source does not match runs")
	}
	if len(offs) == 0 {
		return
	}
	san := pe.world.san
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	transfer := prof.NBITransferNs(runBytes, intra, pairs)
	delivery := prof.DeliveryNs(intra, pairs)
	if pe.lossy(target) {
		// Each run is its own reliable message; the batched WriteRuns gives
		// way to per-run delivery through the receiver's duplicate window.
		for i, off := range offs {
			if off < 0 || off+int64(runBytes) > sym.Size {
				panic(fmt.Sprintf("shmem: putmemv_nbi run of %d bytes at offset %d overflows %d-byte symmetric object", runBytes, off, sym.Size))
			}
			run := src[i*runBytes : (i+1)*runBytes]
			if san != nil {
				san.recordPutNBI(pe.p.ID, 0, target, sym.Off+off, int64(runBytes), run)
			}
			pe.linkPenalty()
			pe.p.Clock.Advance(prof.NBIInjectNs())
			runOff := sym.Off + off
			pe.nbi.IssueAt(target, pe.p.Clock.Now(), transfer, func(wire float64) float64 {
				done, _ := pe.reliableSend(target, wire, delivery, func(at float64) {
					pe.world.pw.Write(target, runOff, run, at)
				})
				return done
			})
		}
		return
	}
	visAt := pe.visAt[:0]
	for i, off := range offs {
		if off < 0 || off+int64(runBytes) > sym.Size {
			panic(fmt.Sprintf("shmem: putmemv_nbi run of %d bytes at offset %d overflows %d-byte symmetric object", runBytes, off, sym.Size))
		}
		if san != nil {
			run := src[i*runBytes : (i+1)*runBytes]
			san.recordPutNBI(pe.p.ID, 0, target, sym.Off+off, int64(runBytes), run)
		}
		pe.linkPenalty()
		pe.p.Clock.Advance(prof.NBIInjectNs())
		visAt = append(visAt, pe.nbi.Issue(target, pe.p.Clock.Now(), transfer, delivery))
	}
	pe.visAt = visAt
	pe.world.pw.WriteRuns(target, sym.Off, offs, runBytes, src, visAt)
}

// IPutMemNBI is the nonblocking byte-level 1-D strided put: the nonblocking
// sibling of IPutMem. The initiator pays the CPU share of the strided issue
// (one descriptor in hardware mode, one per element in loop mode — §V-B2's
// distinction survives overlap); descriptor walking and byte streaming occupy
// the NIC asynchronously.
func (pe *PE) IPutMemNBI(target int, sym Sym, off, dstStrideBytes int64, elemSize int, src []byte) {
	pe.checkTarget(target)
	if elemSize <= 0 || len(src)%elemSize != 0 {
		panic("shmem: iputmem_nbi source not a whole number of elements")
	}
	nelems := len(src) / elemSize
	if nelems == 0 {
		return
	}
	if dstStrideBytes < int64(elemSize) {
		panic("shmem: iputmem_nbi stride smaller than element")
	}
	need := off + int64(nelems-1)*dstStrideBytes + int64(elemSize)
	if off < 0 || need > sym.Size {
		panic(fmt.Sprintf("shmem: iputmem_nbi overflows symmetric object (need %d bytes, have %d)", need, sym.Size))
	}
	if san := pe.world.san; san != nil {
		san.recordPutNBI(pe.p.ID, 0, target, sym.Off+off, need-off, src)
	}
	pe.linkPenalty()
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	pe.p.Clock.Advance(prof.StridedNBIInjectNs(nelems) +
		prof.StridedLocalityNs(nelems, elemSize, dstStrideBytes))
	transfer := prof.StridedNBITransferNs(nelems, elemSize, intra, pairs)
	lat := prof.DeliveryNs(intra, pairs)
	if pe.lossy(target) {
		pe.nbi.IssueAt(target, pe.p.Clock.Now(), transfer, func(wire float64) float64 {
			done, _ := pe.reliableSend(target, wire, lat, func(at float64) {
				pe.world.pw.WriteV(target, sym.Off+off, dstStrideBytes, elemSize, src, at)
			})
			return done
		})
		return
	}
	done := pe.nbi.Issue(target, pe.p.Clock.Now(), transfer, lat)
	pe.world.pw.WriteV(target, sym.Off+off, dstStrideBytes, elemSize, src, done)
}

// IGetMemNBI is the nonblocking byte-level 1-D strided get. dst is undefined
// until Quiet.
func (pe *PE) IGetMemNBI(target int, sym Sym, off, srcStrideBytes int64, elemSize int, dst []byte) {
	pe.checkTarget(target)
	if elemSize <= 0 || len(dst)%elemSize != 0 {
		panic("shmem: igetmem_nbi destination not a whole number of elements")
	}
	nelems := len(dst) / elemSize
	if nelems == 0 {
		return
	}
	if srcStrideBytes < int64(elemSize) {
		panic("shmem: igetmem_nbi stride smaller than element")
	}
	need := off + int64(nelems-1)*srcStrideBytes + int64(elemSize)
	if off < 0 || need > sym.Size {
		panic(fmt.Sprintf("shmem: igetmem_nbi overflows symmetric object (need %d bytes, have %d)", need, sym.Size))
	}
	if san := pe.world.san; san != nil {
		san.checkRead(pe.p.ID, target, sym.Off+off, need-off)
	}
	pe.linkPenalty()
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	pe.p.Clock.Advance(prof.StridedNBIInjectNs(nelems) +
		prof.StridedLocalityNs(nelems, elemSize, srcStrideBytes))
	transfer := prof.StridedNBITransferNs(nelems, elemSize, intra, pairs)
	if pe.lossy(target) {
		lat := prof.DeliveryNs(intra, pairs)
		pe.nbi.IssueAt(target, pe.p.Clock.Now(), transfer, func(wire float64) float64 {
			done, _ := pe.reliableSend(target, wire, lat, nil)
			return done
		})
		pe.world.pw.ReadV(target, sym.Off+off, srcStrideBytes, elemSize, dst)
		return
	}
	pe.nbi.Issue(target, pe.p.Clock.Now(), transfer,
		2*prof.DeliveryNs(intra, pairs))
	pe.world.pw.ReadV(target, sym.Off+off, srcStrideBytes, elemSize, dst)
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
func (pe *PE) NBIOutstanding() int { return pe.nbi.Outstanding() }

// NBIHorizonNs peeks at the completion horizon of the default context's
// in-flight nonblocking ops — the virtual time the next Quiet would merge —
// without completing anything. Horizons are computed at issue time from the
// NIC pipe recurrence and never awaited, which is why no execution engine
// parks a PE on Quiet; the engine differential tests use this to compare
// horizons across engines without perturbing them.
func (pe *PE) NBIHorizonNs() float64 { return pe.nbi.Horizon() }

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
func (pe *PE) QuietStat() error {
	failed := pe.failedTargets(&pe.nbi)
	pe.quiet()
	return pe.unreachFault(failed)
}

// failedTargets lists the failed PEs among a stream set's in-flight
// destinations, in first-issue order.
func (pe *PE) failedTargets(streams *fabric.NBIStreams) []int {
	var failed []int
	streams.Targets(func(t int) {
		if pe.observedFailed(t) {
			failed = append(failed, t)
		}
	})
	return failed
}

// observedFailed reports whether this PE observes target as failed right now.
// For a planned kill the observation is a pure function of virtual time — the
// modelled fault detector notices the death as soon as the observer's own
// clock passes the scheduled kill time — so the quiet-side stat paths replay
// bit-identically regardless of host scheduling. (The victim's goroutine
// processes its death at its next op boundary; querying its life-cycle state
// directly would race that processing in real time, because unlike a
// signal wait there is no happens-before edge between an origin's drain and
// the target's death.) Deaths outside the plan (voluntary FailImage) fall
// back to the life-cycle state, whose observers synchronise through barriers.
func (pe *PE) observedFailed(target int) bool {
	if fp := pe.world.fplan; fp != nil {
		if at, ok := fp.KillTime(target); ok {
			return pe.p.Clock.Now() >= at
		}
	}
	return pe.world.pw.Failed(target)
}

// QuietTargetStat is QuietTarget with fault status, reporting whether the
// drained destination had failed (its writes were dropped by the substrate)
// or had been declared unreachable after retry exhaustion.
func (pe *PE) QuietTargetStat(target int) error {
	pe.checkTarget(target)
	dead := pe.nbi.OutstandingTarget(target) > 0 && pe.observedFailed(target)
	pe.quietTarget(target)
	if dead || pe.isUnreach(target) {
		return &pgas.ImageFault{Failed: []int{target}}
	}
	return nil
}
