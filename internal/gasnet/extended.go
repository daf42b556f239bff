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
// The nonblocking forms are GASNet's implicit-handle family, issued through
// RMA: they join the endpoint's per-destination completion streams
// (fabric.NBIStreams) and are completed by WaitSyncAll or WaitSyncImage. They
// charge only the injection overhead on the initiator and serialise their
// transfer time on the endpoint's NIC pipe, so compute issued between post and
// sync genuinely overlaps communication — through the same issue core as the
// OpenSHMEM nonblocking paths (pgas.PE.Issue), which keeps the blocking-path
// and NBI-path virtual times of the two transports directly comparable.

// Seg is a handle to a symmetric segment region (same offset on all PEs).
type Seg struct {
	Off  int64
	Size int64
}

// span panics unless the n bytes at off lie inside the region.
func (seg Seg) span(op string, off, n int64) {
	if off < 0 || off+n > seg.Size {
		panic(fmt.Sprintf("gasnet: %s of %d bytes at %d overflows %d-byte segment region", op, n, off, seg.Size))
	}
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
// direction: get, put, put nbi. Runs and Strided take the names of GASNet's
// indexed and strided VIS calls, whose runs and elements the model prices as
// puts and gets of their own.
var rmaOps = [...][3]string{
	pgas.Contig:   {"get", "put", "put_nbi"},
	pgas.Runs:     {"geti", "puti", "puti_nbi"},
	pgas.Strided:  {"gets", "puts", "puts_nbi"},
	pgas.Signal:   {"", "put_signal", "put_signal_nbi"},
	pgas.Forensic: {"repair get", "repair put", ""},
}

// RMA issues a layered runtime's descriptor, blocking or on the implicit-handle
// streams: what Put and Get are, the nonblocking, signal, vectored and strided
// forms, and the recovery protocols' forensic reads and repair writes, by d's
// shape and direction. d.Off and a signal's
// d.SigOff are relative to seg (a Runs op's d.Offs to d.Off); d is the caller's
// again at return, both made absolute. A put's bytes have landed when RMA
// returns, so its source is the caller's again at once and the sanitizer holds
// no copy of it.
func (ep *EP) RMA(d *pgas.RMA, seg Seg, nbi bool) {
	if d.Shape == pgas.Signal {
		d.SigOff = seg.word(d.SigOff)
	}
	switch {
	case nbi:
		ep.issue(rmaOps[d.Shape][2], d, seg, &ep.nbi)
	case d.Get:
		ep.issue(rmaOps[d.Shape][0], d, seg, nil)
	default:
		ep.issue(rmaOps[d.Shape][1], d, seg, &ep.blocking)
	}
}

// issue is the endpoint's one checked entry: every put and get — each public
// routine fills a descriptor, a layered runtime hands its own to RMA — arrives
// with d.Off relative to seg. It checks target, geometry, bounds and, under
// the sanitizer, the handle under the routine's name op, returns on an op with nothing to transfer (a signal may
// travel alone), makes d.Off absolute, prices one message of d on the conduit's
// list — a run or element is one message of its Unit bytes — and hands it to
// the substrate's issue core (pgas.PE.IssueRuns), which sends it, lands its
// bytes and books its completion on set. An op on the endpoint's pipe set
// charges only its injection and leaves its transfer to the pipe.
func (ep *EP) issue(op string, d *pgas.RMA, seg Seg, set *fabric.NBIStreams) {
	ep.checkTarget(d.Target)
	lo, hi := d.Span()
	if lo < hi {
		seg.span(op, lo, hi-lo)
		ep.p.CheckHandle(op, seg.Off, seg.Size)
		d.Off += seg.Off
	} else if d.Shape != pgas.Signal {
		return
	}
	intra, pairs := ep.intra(d.Target), ep.pairs()
	prof, nbi := ep.world.prof, set == &ep.nbi
	c := pgas.Price{Lat: prof.DeliveryNs(intra, pairs)}
	n := len(d.Local)
	switch d.Shape {
	case pgas.Runs, pgas.Strided:
		n = d.Unit
	case pgas.Signal:
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
	ep.p.IssueRuns(d, c, set)
}

// Put copies data into the target's segment and blocks for *local*
// completion (gasnet_put_bulk semantics for the source buffer). Remote
// completion requires WaitSyncAll or a barrier.
func (ep *EP) Put(target int, seg Seg, off int64, data []byte) {
	ep.issue("put", &pgas.RMA{Target: target, Off: off, Local: data}, seg, &ep.blocking)
}

// Get copies n bytes from the target's segment into dst, blocking until the
// data is locally usable (gasnet_get_bulk).
func (ep *EP) Get(target int, seg Seg, off int64, dst []byte) {
	ep.issue("get", &pgas.RMA{Get: true, Target: target, Off: off, Local: dst}, seg, nil)
}

// WaitSyncAll completes all implicit-handle operations
// (gasnet_wait_syncnbi_all): the blocking puts' visibility horizon and the
// NBI streams' latest completion, whichever is later. A destination given up
// after retry exhaustion error-terminates here (pgas.PE.Complete).
func (ep *EP) WaitSyncAll() { _ = ep.waitSync(-1, false) } // no stat: nothing to report

// WaitSyncAllStat is WaitSyncAll that returns, as a *pgas.ImageFault, the NBI
// destinations that had failed and those given up.
func (ep *EP) WaitSyncAllStat() error { return ep.waitSync(-1, true) }

// WaitSyncImage completes this endpoint's implicit-handle operations toward
// target only — per-destination completion over the shared NIC pipe, the
// analogue of a shmem per-target quiet. Other destinations' transfers stay
// in flight for a later WaitSyncAll.
func (ep *EP) WaitSyncImage(target int) {
	ep.checkTarget(target)
	_ = ep.waitSync(target, false) // no stat: nothing to report
}

// WaitSyncImageStat is WaitSyncImage with fault status, like WaitSyncAllStat.
func (ep *EP) WaitSyncImageStat(target int) error {
	ep.checkTarget(target)
	return ep.waitSync(target, true)
}

// waitSync is the implicit-handle completion toward target, or every
// destination when target is negative.
func (ep *EP) waitSync(target int, stat bool) error {
	return ep.p.Complete(&ep.nbi, &ep.blocking, target, ep.world.prof.OverheadNs, stat)
}
