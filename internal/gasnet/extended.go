package gasnet

import (
	"fmt"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

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
// issued between post and sync genuinely overlaps communication — through the
// same issue core as the OpenSHMEM *_nbi paths (pgas.PE.Issue), which keeps
// the blocking-path and NBI-path virtual times of the two transports directly
// comparable.

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

// span panics unless the n bytes at off lie inside the region, and returns
// their absolute partition offset.
func (seg Seg) span(op string, off int64, n int) int64 {
	if off < 0 || off+int64(n) > seg.Size {
		panic(fmt.Sprintf("gasnet: %s of %d bytes at %d overflows %d-byte segment region", op, n, off, seg.Size))
	}
	return seg.Off + off
}

// word panics unless the 64-bit word at off lies inside the region, and
// returns its absolute partition offset.
func (seg Seg) word(off int64) int64 {
	if off < 0 || off+8 > seg.Size {
		panic(fmt.Sprintf("gasnet: signal word %d outside %d-byte segment region", off/8, seg.Size))
	}
	return seg.Off + off
}

// rmaOps are the implicit-handle routines RMA stands for, by shape and
// direction: get, put, put nbi.
var rmaOps = [...][3]string{
	pgas.Contig: {"get", "put", "put_nbi"},
	pgas.Signal: {"", "put_signal", "put_signal_nbi"},
}

// RMA issues a layered runtime's descriptor, blocking or on the implicit-handle
// streams: what Put, Get, PutNBI, PutSignal and PutSignalNBI are, by d's shape
// and direction; the conduit has no other shape. d.Off and a signal's d.SigOff
// are relative to seg; d is the caller's again at return, both made absolute.
func (ep *EP) RMA(d *pgas.RMA, seg Seg, nbi bool) {
	if d.Shape == pgas.Signal {
		d.SigOff = seg.word(d.SigOff)
	} else if d.Shape != pgas.Contig {
		panic(fmt.Sprintf("gasnet: no put or get of shape %d", d.Shape))
	}
	switch {
	case nbi:
		ep.issue(rmaOps[d.Shape][2], d, seg, true, &ep.nbi)
	case d.Get:
		ep.issue(rmaOps[d.Shape][0], d, seg, false, nil)
	default:
		ep.issue(rmaOps[d.Shape][1], d, seg, false, &ep.blocking)
	}
}

// issue is the endpoint's one checked entry: every put and get — each public
// routine fills a descriptor, a layered runtime hands its own to RMA — arrives
// with d.Off relative to seg. It checks target and bounds under the routine's
// name op, returns on an op with nothing to transfer (a signal may travel
// alone), makes d.Off absolute, prices one message of d on the conduit's list
// and hands it to the substrate's issue core (pgas.PE.Issue), which sends it,
// lands its bytes and books its completion on set. nbi says the op charges only
// its injection and leaves its transfer to the endpoint's pipe.
func (ep *EP) issue(op string, d *pgas.RMA, seg Seg, nbi bool, set *fabric.NBIStreams) {
	ep.checkTarget(d.Target)
	if len(d.Local) > 0 {
		d.Off = seg.span(op, d.Off, len(d.Local))
	} else if d.Shape != pgas.Signal {
		return
	}
	intra, pairs := ep.intra(d.Target), ep.pairs()
	prof := ep.world.prof
	c := pgas.Price{Lat: prof.DeliveryNs(intra, pairs)}
	n := len(d.Local)
	if d.Shape == pgas.Signal {
		// GASNet has no native put-with-signal; the emulation ships the fused
		// message as a long active message whose handler stores the flag, so
		// data and signal become visible one handler dispatch (AMHandlerNs)
		// after delivery — the modelled cost gap against OpenSHMEM's native
		// shmem_put_signal. The blocking form waits (now + delivery) +
		// handler, the nonblocking one wire-out + (delivery + handler).
		n += 8
		if nbi {
			c.Lat += prof.AMHandlerNs
		} else {
			c.Tail = prof.AMHandlerNs
		}
	}
	switch {
	case nbi:
		c.Inject, c.Transfer = prof.NBIInjectNs(), prof.NBITransferNs(n, intra, pairs)
	case d.Get:
		c.Inject = prof.GetNs(n, intra, pairs)
	default:
		c.Inject = prof.PutInjectNs(n, intra, pairs)
	}
	ep.p.Issue(d, c, set, nil)
}

// Put copies data into the target's segment and blocks for *local*
// completion (gasnet_put_bulk semantics for the source buffer). Remote
// completion requires WaitSyncAll or a barrier.
func (ep *EP) Put(target int, seg Seg, off int64, data []byte) {
	ep.issue("put", &pgas.RMA{Target: target, Off: off, Local: data}, seg, false, &ep.blocking)
}

// PutNB is the explicit-handle non-blocking put (gasnet_put_nb): the
// initiator pays only the injection overhead, the transfer occupies the NIC
// pipe from its next idle moment, and the returned handle must be synced
// with WaitSync before the source buffer may be reused. The op does not
// join the implicit sync set — WaitSyncAll never completes it.
func (ep *EP) PutNB(target int, seg Seg, off int64, data []byte) SyncHandle {
	ep.issue("put_nb", &pgas.RMA{Target: target, Off: off, Local: data}, seg, true, &ep.explicit)
	return SyncHandle{t: ep.explicit.Drain()}
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
	ep.issue("get_nb", &pgas.RMA{Get: true, Target: target, Off: off, Local: dst}, seg, true, &ep.explicit)
	return SyncHandle{t: ep.explicit.Drain()}, err
}

// PutNBI is the implicit-handle non-blocking put (gasnet_put_nbi): the op
// rides the endpoint's per-destination completion streams and is completed
// by WaitSyncAll (or WaitSyncImage toward its destination). The source
// buffer must stay unmodified until then.
func (ep *EP) PutNBI(target int, seg Seg, off int64, data []byte) {
	ep.issue("put_nbi", &pgas.RMA{Target: target, Off: off, Local: data}, seg, true, &ep.nbi)
}

// GetNBI is the implicit-handle non-blocking get (gasnet_get_nbi): the
// modelled completion pays the request round trip plus the data streaming
// back. dst is undefined until WaitSyncAll/WaitSyncImage.
func (ep *EP) GetNBI(target int, seg Seg, off int64, dst []byte) {
	ep.issue("get_nbi", &pgas.RMA{Get: true, Target: target, Off: off, Local: dst}, seg, true, &ep.nbi)
}

// Get copies n bytes from the target's segment into dst, blocking until the
// data is locally usable (gasnet_get_bulk).
func (ep *EP) Get(target int, seg Seg, off int64, dst []byte) {
	ep.issue("get", &pgas.RMA{Get: true, Target: target, Off: off, Local: dst}, seg, false, nil)
}

// PutSignal fuses a data payload and an 8-byte signal word into one blocking
// injection toward target: data and signal land together, one handler
// dispatch after delivery (see issue). data may be empty to send the signal
// alone.
func (ep *EP) PutSignal(target int, seg Seg, off int64, data []byte, sigSeg Seg, sigIdx int, sigVal int64) {
	ep.putSignal("put_signal", false, &ep.blocking, target, seg, off, data, sigSeg, sigIdx, sigVal)
}

// PutSignalNBI is the nonblocking flavour of PutSignal: the fused AM rides
// the per-destination completion streams, so a consumer that observes the
// signal sees the payload and every transfer previously streamed to it.
// Completion requires WaitSyncAll/WaitSyncImage.
func (ep *EP) PutSignalNBI(target int, seg Seg, off int64, data []byte, sigSeg Seg, sigIdx int, sigVal int64) {
	ep.putSignal("put_signal_nbi", true, &ep.nbi, target, seg, off, data, sigSeg, sigIdx, sigVal)
}

// putSignal is the two signal puts: it checks the signal word, which has a
// segment region of its own.
func (ep *EP) putSignal(op string, nbi bool, set *fabric.NBIStreams, target int, seg Seg, off int64, data []byte, sigSeg Seg, sigIdx int, sigVal int64) {
	ep.checkTarget(target)
	ep.issue(op, &pgas.RMA{Shape: pgas.Signal, Target: target, Off: off, Local: data, SigOff: sigSeg.word(int64(sigIdx) * 8), SigVal: uint64(sigVal)}, seg, nbi, set)
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
