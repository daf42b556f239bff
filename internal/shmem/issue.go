package shmem

import (
	"fmt"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// Every put and get of the library — contiguous, vectored, strided, with a
// signal, repair or forensic; blocking or nonblocking on any context — is one
// pgas.RMA descriptor handed to the substrate's issue core (pgas.PE.Issue),
// which sends its messages, lands its bytes and books its completion. What is
// the library's own is here: the entry points fill the descriptor; issue checks
// it, runs the sanitizer hook, prices one message of it on the OpenSHMEM list
// and names the context's completion set.

// mode is what an entry point says of an op beyond its geometry.
type mode uint8

const (
	// nbi is a nonblocking op: it rides the streams of the context it is
	// issued on and is completed by that context's Quiet.
	nbi mode = 1 << iota
	// locality charges the memory-side cost of the strided remote walk
	// (fabric.StridedLocalityNs): the byte-level strided forms do, the typed
	// IPut/IGet never have.
	locality
	// blocking: a put joins the context's horizon, a get completes inline.
	blocking mode = 0
)

// stridedCost prices the strided shape: elements, not bytes, and for the
// byte-level forms the memory-side walk.
func stridedCost(d *pgas.RMA, m mode, prof *fabric.CostProfile, intra bool, pairs int) (inject, transfer float64) {
	nelems := len(d.Local) / d.Unit
	if m&locality != 0 {
		inject = prof.StridedLocalityNs(nelems, d.Unit, d.Stride)
	}
	if m&nbi != 0 {
		return inject + prof.StridedNBIInjectNs(nelems), prof.StridedNBITransferNs(nelems, d.Unit, intra, pairs)
	}
	inject += prof.StridedInjectNs(nelems, d.Unit, intra, pairs)
	if d.Get {
		inject += 2 * prof.DeliveryNs(intra, pairs)
	}
	return inject, 0
}

// sanitize records the op's messages with the runtime sanitizer: a put as
// outstanding until its context's Quiet (a nonblocking one together with src,
// the source buffer it must leave alone until then), a get as a read that
// must not race one. A signal put's completion is signal-mediated and a
// forensic get reads what no put is outstanding on, so neither is tracked.
func (c *Ctx) sanitize(san *sanitizer, d *pgas.RMA, m mode, src []byte) {
	if d.Shape == pgas.Signal || d.Shape == pgas.Forensic && d.Get {
		return
	}
	me, off, size := c.pe.p.ID, d.Off, int64(len(d.Local))
	switch d.Shape {
	case pgas.Runs:
		size = int64(d.Unit)
	case pgas.Strided:
		size = int64(len(d.Local)/d.Unit-1)*d.Stride + int64(d.Unit)
	}
	for i, msgs := 0, d.Msgs(); i < msgs; i++ {
		if d.Shape == pgas.Runs {
			off = d.Off + d.Offs[i]
		}
		switch {
		case d.Get:
			san.checkRead(me, d.Target, off, size)
		case m&nbi == 0:
			san.recordPut(me, d.Target, off, size)
		case d.Shape == pgas.Runs:
			san.recordPutNBI(me, c.id, d.Target, off, size, src[i*d.Unit:(i+1)*d.Unit])
		default:
			san.recordPutNBI(me, c.id, d.Target, off, size, src)
		}
	}
}

// issue is the library's one checked entry: every put and get on the context —
// each public routine fills a descriptor, a layered runtime hands its own to
// PE.RMA — arrives with d.Off, and a Runs op's d.Offs, relative to sym. It
// checks target and bounds, returns on an op with nothing to transfer, makes
// d.Off absolute, runs the sanitizer hook, prices one message and hands the op
// to the issue core. src is a nonblocking put's source buffer (d.Local again;
// read for no other op): the sanitizer retains it until Quiet, and retaining a
// descriptor field instead would move every caller's buffer — the stack-held
// word of a P or G included — to the heap.
func (c *Ctx) issue(d *pgas.RMA, sym Sym, m mode, src []byte) {
	pe, w := c.pe, c.pe.world
	pe.checkTarget(d.Target)
	switch d.Shape {
	case pgas.Runs:
		sym.runsSpan(d, m)
		if len(d.Offs) == 0 {
			return
		}
		d.Off = sym.Off
	case pgas.Strided:
		if !sym.stridedSpan(d, m) {
			return
		}
		d.Off += sym.Off
	default:
		// An empty payload is no op, or a signal travelling alone. The signal
		// word is its wrapper's to check: it has a symmetric object of its own.
		if len(d.Local) > 0 {
			d.Off = sym.span(d, m, d.Off, int64(len(d.Local)))
		} else if d.Shape != pgas.Signal {
			return
		}
	}
	if w.san != nil {
		c.sanitize(w.san, d, m, src)
	}
	intra, pairs := pe.intra(d.Target), pe.pairs()
	prof := w.prof
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
		price.Inject, price.Transfer = stridedCost(d, m, prof, intra, pairs)
	case m&nbi != 0:
		price.Inject, price.Transfer = prof.NBIInjectNs(), prof.NBITransferNs(n, intra, pairs)
	case d.Get:
		price.Inject = prof.GetNs(n, intra, pairs)
	default:
		price.Inject = prof.PutInjectNs(n, intra, pairs)
	}
	// Completion is booked on the context's streams, or on its blocking
	// horizon; a blocking get has nowhere: it completes before it returns.
	var set *fabric.NBIStreams
	switch {
	case m&nbi != 0:
		set = &c.nbi
	case !d.Get:
		set = &c.blocking
	}
	pe.p.Issue(d, price, set, w.fplan)
}

// RMA issues a layered runtime's descriptor on the default context, blocking or
// nonblocking (until Quiet a put's source then stays unmodified, a get's
// destination undefined): what PutMem, GetMemV, IPutMemNBI, PutSignal, … are,
// by d's shape and direction. d.Off and d.Offs are relative to sym, a signal's
// d.SigOff absolute and the caller's to check (Sym.At); d is the caller's again
// at return, its Off made absolute.
func (pe *PE) RMA(d *pgas.RMA, sym Sym, nonblocking bool) {
	m := locality
	if nonblocking {
		m |= nbi
	}
	pe.def.issue(d, sym, m, d.Local)
}

// opName is what the bounds panics call d: the public routine that issues it.
func opName(d *pgas.RMA, m mode) string {
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
		name = "i" + name
		if m&locality != 0 {
			name += "mem"
		}
	}
	if m&nbi != 0 {
		name += "_nbi"
	}
	return name
}

// span panics unless the n bytes at offset off lie inside sym, and returns
// their absolute partition offset.
func (sym Sym) span(d *pgas.RMA, m mode, off, n int64) int64 {
	if off < 0 || off+n > sym.Size {
		sym.overflow(d, m, off, n)
	}
	return sym.Off + off
}

// overflow is span's panic, kept out of line so that span inlines.
//
//go:noinline
func (sym Sym) overflow(d *pgas.RMA, m mode, off, n int64) {
	panic(fmt.Sprintf("shmem: %s of %d bytes at offset %d overflows %d-byte symmetric object", opName(d, m), n, off, sym.Size))
}

// stridedSpan validates a strided remote operand — len(d.Local) bytes of
// d.Unit-byte elements at byte stride d.Stride from d.Off within sym — and
// reports whether there is anything to transfer.
func (sym Sym) stridedSpan(d *pgas.RMA, m mode) bool {
	if d.Unit <= 0 || len(d.Local)%d.Unit != 0 {
		panic(fmt.Sprintf("shmem: %s operand not a whole number of elements", opName(d, m)))
	}
	nelems := len(d.Local) / d.Unit
	if nelems == 0 {
		return false
	}
	if d.Stride < int64(d.Unit) {
		panic(fmt.Sprintf("shmem: %s stride smaller than element", opName(d, m)))
	}
	need := d.Off + int64(nelems-1)*d.Stride + int64(d.Unit)
	if d.Off < 0 || need > sym.Size {
		panic(fmt.Sprintf("shmem: %s overflows symmetric object (need %d bytes, have %d)", opName(d, m), need, sym.Size))
	}
	return true
}

// runsSpan validates a vectored operand: len(d.Offs) runs of d.Unit bytes,
// dense in d.Local, each inside sym.
func (sym Sym) runsSpan(d *pgas.RMA, m mode) {
	if d.Unit <= 0 || len(d.Local) != len(d.Offs)*d.Unit {
		panic(fmt.Sprintf("shmem: %s operand does not match runs", opName(d, m)))
	}
	for _, off := range d.Offs {
		sym.span(d, m, off, int64(d.Unit))
	}
}
