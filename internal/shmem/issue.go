package shmem

import (
	"fmt"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// Every put and get of the library — contiguous, vectored, strided, with a
// signal, repair or forensic; blocking or nonblocking — is one pgas.RMA
// descriptor handed to the substrate's issue core (pgas.PE.Issue), which sends
// its messages, lands its bytes and books its completion. What is the
// library's own is here: the entry points fill the descriptor; issue checks
// it, prices one message of it on the OpenSHMEM list and names the PE's
// completion set. A nonblocking op rides the PE's streams and is completed by
// Quiet; a blocking put joins the PE's horizon, a blocking get completes
// inline.

// stridedCost prices the strided shape: elements, not bytes, plus the
// memory-side cost of the strided remote walk (fabric.StridedLocalityNs), the
// §IV-C data-locality term of the runtime's strided lowerings.
func stridedCost(d *pgas.RMA, nbi bool, prof *fabric.CostProfile, intra bool, pairs int) (inject, transfer float64) {
	nelems := len(d.Local) / d.Unit
	inject = prof.StridedLocalityNs(nelems, d.Unit, d.Stride)
	if nbi {
		return inject + prof.StridedNBIInjectNs(nelems), prof.StridedNBITransferNs(nelems, d.Unit, intra, pairs)
	}
	inject += prof.StridedInjectNs(nelems, d.Unit, intra, pairs)
	if d.Get {
		inject += 2 * prof.DeliveryNs(intra, pairs)
	}
	return inject, 0
}

// issue is the library's one checked entry: every put and get — each public
// routine fills a descriptor, a layered runtime hands its own to PE.RMA —
// arrives with d.Off relative to sym. It checks target, geometry,
// bounds and, under the sanitizer, the handle; returns on an op with nothing to
// transfer, makes d.Off absolute, prices one message and hands the op to the
// issue core, with src, a nonblocking put's source buffer (d.Local again; read
// for no other op).
func (pe *PE) issue(d *pgas.RMA, sym Sym, nbi bool, src []byte) {
	prof := pe.world.prof
	pe.checkTarget(d.Target)
	// An empty op is no op, or a signal travelling alone. The signal word is
	// its wrapper's to check: it has a symmetric object of its own.
	lo, hi := d.Span()
	if lo < hi {
		sym.span(d, nbi, lo, hi-lo)
		if pe.world.pw.Sanitizing() { // the op's name is built for the check only
			pe.p.CheckHandle(opName(d, nbi), sym.Off, sym.Size)
		}
		d.Off += sym.Off
	} else if d.Shape != pgas.Signal {
		return
	}
	intra, pairs := pe.intra(d.Target), pe.pairs()
	price := pgas.Price{Lat: prof.DeliveryNs(intra, pairs)}
	n := len(d.Local)
	switch d.Shape {
	case pgas.Runs:
		n = d.Unit
	case pgas.Signal:
		n += 8
	}
	switch {
	case d.Shape == pgas.Strided:
		price.Inject, price.Transfer = stridedCost(d, nbi, prof, intra, pairs)
	case nbi:
		price.Inject, price.Transfer = prof.NBIInjectNs(), prof.NBITransferNs(n, intra, pairs)
	case d.Get:
		price.Inject = prof.GetNs(n, intra, pairs)
	default:
		price.Inject = prof.PutInjectNs(n, intra, pairs)
	}
	// Completion is booked on the PE's streams, or on its blocking horizon,
	// whose puts hold no source to a contract; a blocking get has nowhere: it
	// completes before it returns.
	var set *fabric.NBIStreams
	switch {
	case nbi:
		set = &pe.nbi
	case !d.Get:
		set, src = &pe.blocking, nil
	}
	pe.p.Issue(d, src, price, set)
}

// RMA issues a layered runtime's descriptor, blocking or nonblocking (until
// Quiet a get's destination is then undefined): a contiguous, vectored,
// strided or signal put or get, by d's shape and direction. d.Off and
// d.Offs are relative to sym, a signal's d.SigOff absolute and the caller's to
// check (Sym.At); d is the caller's again at return, its Off made absolute. A
// put's bytes have landed when RMA returns, so its source is the caller's
// again at once and the sanitizer holds no copy of it: only the library's own
// PutMemNBI keeps OpenSHMEM's source contract.
func (pe *PE) RMA(d *pgas.RMA, sym Sym, nonblocking bool) {
	pe.issue(d, sym, nonblocking, nil)
}

// opName is what the bounds panics and bad-handle findings call d: the public
// routine that issues it.
func opName(d *pgas.RMA, nbi bool) string {
	name := "put"
	if d.Get {
		name = "get"
	}
	switch d.Shape {
	case pgas.Signal:
		return "put_signal"
	case pgas.Forensic:
		return "repair " + name
	case pgas.Runs:
		name += "memv"
	case pgas.Strided:
		name = "i" + name + "mem"
	}
	if nbi {
		name += "_nbi"
	}
	return name
}

// span panics unless the n bytes at offset off lie inside sym.
func (sym Sym) span(d *pgas.RMA, nbi bool, off, n int64) {
	if off < 0 || off+n > sym.Size {
		sym.overflow(d, nbi, off, n)
	}
}

// overflow is span's panic, kept out of line so that span inlines.
//
//go:noinline
func (sym Sym) overflow(d *pgas.RMA, nbi bool, off, n int64) {
	panic(fmt.Sprintf("shmem: %s of %d bytes at offset %d overflows %d-byte symmetric object", opName(d, nbi), n, off, sym.Size))
}
