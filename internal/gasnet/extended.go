package gasnet

import "fmt"

// Extended API: one-sided put/get against the target's registered segment
// (our per-PE partition). Offsets are absolute partition offsets; layered
// runtimes allocate them with the collective Malloc below.
//
// Nonblocking forms come in GASNet's two families. Explicit-handle ops
// (PutNB/GetNB) return a SyncHandle completed by WaitSync; implicit-handle
// ops (PutNBI/GetNBI) join the endpoint's per-destination completion streams
// (fabric.NBIStreams) and are completed by WaitSyncAll or WaitSyncImage.
// Both families charge only the injection overhead on the initiator and
// serialise their transfer time on the endpoint's NIC pipe, so compute
// issued between post and sync genuinely overlaps communication — the same
// arithmetic as the OpenSHMEM *_nbi paths, which keeps the blocking-path
// and NBI-path virtual times of the two transports directly comparable.

// Seg is a handle to a symmetric segment region (same offset on all PEs).
type Seg struct {
	Off  int64
	Size int64
}

// PartialError reports a nonblocking operation that could only transfer a
// prefix of the requested range before running off the segment region. The
// transferred prefix is valid once the returned handle is synced; the
// remainder was never issued.
type PartialError struct {
	Op          string
	Requested   int
	Transferred int
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("gasnet: %s completed %d of %d bytes (range overflows segment region)",
		e.Op, e.Transferred, e.Requested)
}

// putCommon is the shared blocking-put core: validation, source-side
// injection, and the deferred-visibility write. It returns the remote
// visibility timestamp (0 for an empty put).
func (ep *EP) putCommon(target int, seg Seg, off int64, data []byte) float64 {
	ep.checkTarget(target)
	if len(data) == 0 {
		return 0
	}
	if off < 0 || off+int64(len(data)) > seg.Size {
		panic(fmt.Sprintf("gasnet: put of %d bytes at %d overflows %d-byte segment region", len(data), off, seg.Size))
	}
	intra, pairs := ep.intra(target), ep.pairs()
	prof := ep.world.prof
	ep.p.Clock.Advance(prof.PutInjectNs(len(data), intra, pairs))
	vis := ep.p.Clock.Now() + prof.DeliveryNs(intra, pairs)
	ep.world.pw.Write(target, seg.Off+off, data, vis)
	return vis
}

// Put copies data into the target's segment and blocks for *local*
// completion (gasnet_put_bulk semantics for the source buffer). Remote
// completion requires WaitSyncAll or a barrier.
func (ep *EP) Put(target int, seg Seg, off int64, data []byte) {
	if vis := ep.putCommon(target, seg, off, data); vis > 0 {
		ep.blocking.Note(target, vis)
	}
}

// PutNB is the explicit-handle non-blocking put (gasnet_put_nb): the
// initiator pays only the injection overhead, the transfer occupies the NIC
// pipe from its next idle moment, and the returned handle must be synced
// with WaitSync before the source buffer may be reused. The op does not
// join the implicit sync set — WaitSyncAll never completes it.
func (ep *EP) PutNB(target int, seg Seg, off int64, data []byte) SyncHandle {
	ep.checkTarget(target)
	if len(data) == 0 {
		return SyncHandle{}
	}
	if off < 0 || off+int64(len(data)) > seg.Size {
		panic(fmt.Sprintf("gasnet: put_nb of %d bytes at %d overflows %d-byte segment region", len(data), off, seg.Size))
	}
	intra, pairs := ep.intra(target), ep.pairs()
	prof := ep.world.prof
	ep.p.Clock.Advance(prof.NBIInjectNs())
	wire := ep.nic.Reserve(ep.p.Clock.Now(), prof.NBITransferNs(len(data), intra, pairs))
	done := wire + prof.DeliveryNs(intra, pairs)
	ep.world.pw.Write(target, seg.Off+off, data, done)
	return SyncHandle{t: done}
}

// GetNB is the explicit-handle non-blocking get (gasnet_get_nb). Unlike the
// blocking Get, a range that overflows the segment region does not panic:
// the in-segment prefix is transferred and a *PartialError reports how much
// was issued — the initiator learns about the short transfer at injection
// time, not as a crash at sync time. dst is undefined until WaitSync.
func (ep *EP) GetNB(target int, seg Seg, off int64, dst []byte) (SyncHandle, error) {
	ep.checkTarget(target)
	if len(dst) == 0 {
		return SyncHandle{}, nil
	}
	want := len(dst)
	var err error
	if off < 0 || off >= seg.Size {
		return SyncHandle{}, &PartialError{Op: "get_nb", Requested: want, Transferred: 0}
	}
	if off+int64(want) > seg.Size {
		dst = dst[:seg.Size-off]
		err = &PartialError{Op: "get_nb", Requested: want, Transferred: len(dst)}
	}
	intra, pairs := ep.intra(target), ep.pairs()
	prof := ep.world.prof
	ep.p.Clock.Advance(prof.NBIInjectNs())
	wire := ep.nic.Reserve(ep.p.Clock.Now(), prof.NBITransferNs(len(dst), intra, pairs))
	done := wire + 2*prof.DeliveryNs(intra, pairs)
	ep.world.pw.Read(target, seg.Off+off, dst)
	return SyncHandle{t: done}, err
}

// PutNBI is the implicit-handle non-blocking put (gasnet_put_nbi): the op
// rides the endpoint's per-destination completion streams and is completed
// by WaitSyncAll (or WaitSyncImage toward its destination). The source
// buffer must stay unmodified until then.
func (ep *EP) PutNBI(target int, seg Seg, off int64, data []byte) {
	ep.checkTarget(target)
	if len(data) == 0 {
		return
	}
	if off < 0 || off+int64(len(data)) > seg.Size {
		panic(fmt.Sprintf("gasnet: put_nbi of %d bytes at %d overflows %d-byte segment region", len(data), off, seg.Size))
	}
	intra, pairs := ep.intra(target), ep.pairs()
	prof := ep.world.prof
	ep.p.Clock.Advance(prof.NBIInjectNs())
	transfer := prof.NBITransferNs(len(data), intra, pairs)
	done := ep.nbi.Issue(target, ep.p.Clock.Now(), transfer, prof.DeliveryNs(intra, pairs))
	ep.world.pw.Write(target, seg.Off+off, data, done)
}

// GetNBI is the implicit-handle non-blocking get (gasnet_get_nbi): the
// modelled completion pays the request round trip plus the data streaming
// back. dst is undefined until WaitSyncAll/WaitSyncImage.
func (ep *EP) GetNBI(target int, seg Seg, off int64, dst []byte) {
	ep.checkTarget(target)
	if len(dst) == 0 {
		return
	}
	if off < 0 || off+int64(len(dst)) > seg.Size {
		panic(fmt.Sprintf("gasnet: get_nbi of %d bytes at %d overflows %d-byte segment region", len(dst), off, seg.Size))
	}
	intra, pairs := ep.intra(target), ep.pairs()
	prof := ep.world.prof
	ep.p.Clock.Advance(prof.NBIInjectNs())
	transfer := prof.NBITransferNs(len(dst), intra, pairs)
	ep.nbi.Issue(target, ep.p.Clock.Now(), transfer, 2*prof.DeliveryNs(intra, pairs))
	ep.world.pw.Read(target, seg.Off+off, dst)
}

// Get copies n bytes from the target's segment into dst, blocking until the
// data is locally usable (gasnet_get_bulk).
func (ep *EP) Get(target int, seg Seg, off int64, dst []byte) {
	ep.checkTarget(target)
	if len(dst) == 0 {
		return
	}
	if off < 0 || off+int64(len(dst)) > seg.Size {
		panic(fmt.Sprintf("gasnet: get of %d bytes at %d overflows %d-byte segment region", len(dst), off, seg.Size))
	}
	intra, pairs := ep.intra(target), ep.pairs()
	ep.p.Clock.Advance(ep.world.prof.GetNs(len(dst), intra, pairs))
	ep.world.pw.Read(target, seg.Off+off, dst)
}

// PutSignal fuses a data payload and an 8-byte signal word into one blocking
// injection toward target. GASNet has no native put-with-signal; the
// emulation ships the fused message as a long active message whose handler
// stores the flag, so data and signal land together one handler dispatch
// (AMHandlerNs) after delivery — the modelled cost gap against OpenSHMEM's
// native shmem_put_signal.
func (ep *EP) PutSignal(target int, seg Seg, off int64, data []byte, sigSeg Seg, sigIdx int, sigVal int64) {
	ep.checkTarget(target)
	if len(data) > 0 && (off < 0 || off+int64(len(data)) > seg.Size) {
		panic(fmt.Sprintf("gasnet: put_signal of %d bytes at %d overflows %d-byte segment region", len(data), off, seg.Size))
	}
	sigOff := ep.sigOff(sigSeg, sigIdx)
	intra, pairs := ep.intra(target), ep.pairs()
	prof := ep.world.prof
	ep.p.Clock.Advance(prof.PutInjectNs(len(data)+8, intra, pairs))
	vis := ep.p.Clock.Now() + prof.DeliveryNs(intra, pairs) + prof.AMHandlerNs
	if len(data) > 0 {
		ep.world.pw.Write(target, seg.Off+off, data, vis)
	}
	ep.world.pw.WriteUint64(target, sigSeg.Off+sigOff, uint64(sigVal), vis)
	ep.blocking.Note(target, vis)
}

// PutSignalNBI is the nonblocking flavour of PutSignal: the fused AM rides
// the per-destination completion streams, so a consumer that observes the
// signal sees the payload and every transfer previously streamed to it.
// Completion requires WaitSyncAll/WaitSyncImage.
func (ep *EP) PutSignalNBI(target int, seg Seg, off int64, data []byte, sigSeg Seg, sigIdx int, sigVal int64) {
	ep.checkTarget(target)
	if len(data) > 0 && (off < 0 || off+int64(len(data)) > seg.Size) {
		panic(fmt.Sprintf("gasnet: put_signal_nbi of %d bytes at %d overflows %d-byte segment region", len(data), off, seg.Size))
	}
	sigOff := ep.sigOff(sigSeg, sigIdx)
	intra, pairs := ep.intra(target), ep.pairs()
	prof := ep.world.prof
	ep.p.Clock.Advance(prof.NBIInjectNs())
	transfer := prof.NBITransferNs(len(data)+8, intra, pairs)
	done := ep.nbi.Issue(target, ep.p.Clock.Now(), transfer,
		prof.DeliveryNs(intra, pairs)+prof.AMHandlerNs)
	if len(data) > 0 {
		ep.world.pw.Write(target, seg.Off+off, data, done)
	}
	ep.world.pw.WriteUint64(target, sigSeg.Off+sigOff, uint64(sigVal), done)
}

func (ep *EP) sigOff(sigSeg Seg, sigIdx int) int64 {
	off := int64(sigIdx) * 8
	if off < 0 || off+8 > sigSeg.Size {
		panic(fmt.Sprintf("gasnet: signal word %d outside %d-byte segment region", sigIdx, sigSeg.Size))
	}
	return off
}

// SyncHandle tracks one non-blocking operation.
type SyncHandle struct{ t float64 }

// WaitSync blocks until the handle's operation is remotely complete
// (gasnet_wait_syncnb).
func (ep *EP) WaitSync(h SyncHandle) {
	ep.p.Clock.Advance(ep.world.prof.OverheadNs)
	ep.p.Clock.MergeAtLeast(h.t)
}

// WaitSyncAll completes all implicit-handle operations
// (gasnet_wait_syncnbi_all): the blocking puts' visibility horizon and the
// NBI streams' latest completion, whichever is later.
func (ep *EP) WaitSyncAll() {
	ep.p.Clock.Advance(ep.world.prof.OverheadNs)
	ep.p.Clock.MergeAtLeast(max(ep.nbi.Drain(), ep.blocking.Drain()))
}

// WaitSyncImage completes this endpoint's implicit-handle operations toward
// target only — per-destination completion over the shared NIC pipe, the
// analogue of a shmem per-target quiet. Other destinations' transfers stay
// in flight for a later WaitSyncAll.
func (ep *EP) WaitSyncImage(target int) {
	ep.checkTarget(target)
	ep.p.Clock.Advance(ep.world.prof.OverheadNs)
	ep.p.Clock.MergeAtLeast(max(ep.nbi.DrainTarget(target), ep.blocking.DrainTarget(target)))
}

// NBIOutstanding returns the number of implicit-handle ops in flight
// (observability and tests).
func (ep *EP) NBIOutstanding() int { return ep.nbi.Outstanding() }
