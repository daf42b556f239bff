package pgas

import (
	"encoding/binary"
	"fmt"

	"cafshmem/internal/fabric"
)

// The issue core: every put and get of every library — contiguous, vectored,
// strided, with a signal, repair or forensic; blocking or nonblocking — is
// one RMA descriptor issued by a PE. A library validates its arguments, fills
// the descriptor, prices one message of it on its own list and names the set
// its completion is booked on; how each message crosses the link (Transmit),
// where its bytes land and how it is booked are written once, here. Atomics
// and active-message handlers stay outside: they are not puts and gets.

// Shape says how an op's bytes lie on the target, and therefore which
// substrate call moves them.
type Shape uint8

const (
	// Contig is Local's bytes at Off.
	Contig Shape = iota
	// Runs is len(Offs) runs of Unit bytes at Off+Offs[i], dense in Local.
	// Each run is its own message, costed exactly as a Contig op of Unit
	// bytes; only the host-side data movement is batched.
	Runs
	// Strided is len(Local)/Unit elements of Unit bytes at byte stride
	// Stride from Off, dense in Local: one message on a library with a
	// strided call, the runs of its elements on one without (IssueRuns).
	Strided
	// Signal is a Contig put (possibly empty) followed by the 64-bit word
	// SigVal at SigOff, travelling as one message: both land at the same
	// time or neither does — a lost doorbell never advertises absent data.
	Signal
	// Forensic is a Contig op of the recovery protocols: it reaches a failed
	// PE's frozen partition and, being the recovery path's own traffic,
	// stays outside the reliability protocol. A forensic get reads one word
	// into Local and merges the word's visibility timestamp.
	Forensic
)

// RMA describes one put or get to the issue core.
type RMA struct {
	Get    bool
	Shape  Shape
	Target int
	Off    int64  // absolute partition offset of the remote operand
	Local  []byte // the dense local operand: a put's source, a get's destination
	Offs   []int64
	Unit   int
	Stride int64
	SigOff int64
	SigVal uint64
}

// Msgs is the number of messages the op sends: one, or one per run.
func (d *RMA) Msgs() int {
	if d.Shape == Runs {
		return len(d.Offs)
	}
	return 1
}

// Span checks d's geometry and returns the bytes [lo, hi) its remote operand
// spans, in Off's frame: Local at Off; a Runs op's runs from the lowest to the
// end of the highest; a Strided op's elements from the first to the end of the
// last. A signal's word is not part of it, and an op with nothing to move spans
// nothing (lo == hi). It is the one geometry check of every library, each of
// which holds [lo, hi) to its own region.
func (d *RMA) Span() (lo, hi int64) {
	if d.Shape-Runs <= Strided-Runs { // Runs or Strided, adjacent: one compare keeps Span inlinable
		lo, hi = d.vecSpan()
		return
	}
	return d.Off, d.Off + int64(len(d.Local))
}

// vecSpan is Span of a Runs or Strided op, out of line so that Span inlines.
// Malformed geometry panics: a Unit below one, a Local that is not whole
// elements or does not match Offs, a Stride smaller than an element.
func (d *RMA) vecSpan() (lo, hi int64) {
	unit := int64(d.Unit)
	if d.Shape == Runs {
		if unit <= 0 || len(d.Local) != len(d.Offs)*d.Unit {
			panic(fmt.Sprintf("pgas: %d bytes of local operand do not match %d runs of %d bytes", len(d.Local), len(d.Offs), d.Unit))
		}
		if len(d.Offs) == 0 {
			return d.Off, d.Off
		}
		return spanOf(d.Off, d.Offs, 1, 0, unit)
	}
	if unit <= 0 || len(d.Local)%d.Unit != 0 {
		panic(fmt.Sprintf("pgas: %d bytes of local operand are not whole %d-byte elements", len(d.Local), d.Unit))
	}
	n := int64(len(d.Local) / d.Unit)
	if n == 0 {
		return d.Off, d.Off
	}
	if d.Stride < unit {
		panic(fmt.Sprintf("pgas: stride %d is smaller than the %d-byte element", d.Stride, d.Unit))
	}
	return spanOf(d.Off, nil, n, d.Stride, unit)
}

// Price is what one message of an op costs on its library's price list.
type Price struct {
	// Inject is the initiator's CPU charge. A blocking op charges its
	// transfer here, inline; a blocking get the whole round trip.
	Inject float64
	// Transfer is a nonblocking op's occupancy of the NIC pipe.
	Transfer float64
	// Lat is the loss-free one-way flight.
	Lat float64
	// Tail is what the target spends between delivery and visibility (an AM
	// handler's dispatch), added as its own term: (wire + Lat) + Tail. A
	// library whose tail is part of the flight prices it into Lat.
	Tail float64
}

// Issue runs one put or get: send its messages, then move its bytes. set is
// where completion is booked — a PE's or endpoint's streams, or a
// blocking horizon (a stream set with no pipe); nil for a blocking get, which
// completes before it returns — and so the sanitizer's scope for a put: a
// drain of set (Drain, DrainTarget) completes it. src is the source of a
// library's own nonblocking put (d.Local again; nil for every other op, a
// layered runtime's included, whose bytes are landed here before Issue
// returns), which the sanitizer holds to the library's source contract until
// then: retaining a descriptor field instead would move
// every caller's buffer to the heap, the stack-held word of a typed P or G
// included, as escape analysis is per parameter. The world's fault plan
// (Options.FaultPlan) says how each message crosses its link.
//
// The two halves are separate calls on purpose. send keeps a dozen values
// live; returning before the bytes move keeps its frame off the stack under
// the write path, the deepest point of a PE goroutine — where a few hundred
// bytes more grow the stack of every image of every short-lived world once
// more.
func (p *PE) Issue(d *RMA, src []byte, c Price, set *fabric.NBIStreams) {
	if s := p.world.san; s != nil {
		s.record(p.ID, d, src, set)
	}
	landed, vis := p.send(d, c, set)
	if d.Get {
		p.fetch(d)
		return
	}
	p.land(d, landed, d.Msgs(), vis) // on a reliable link, the whole op in one call
}

// IssueRuns is Issue for a library with no strided call and no nonblocking
// put of its own: a Strided op crosses as the runs of its elements, a message
// each, every one priced by c as a Contig op of Unit bytes is. d is the
// caller's again at return.
func (p *PE) IssueRuns(d *RMA, c Price, set *fabric.NBIStreams) {
	if d.Shape != Strided {
		p.Issue(d, nil, c, set)
		return
	}
	sp, offs := GetOffsScratch(), d.Offs
	for i := range len(d.Local) / d.Unit {
		*sp = append(*sp, int64(i)*d.Stride)
	}
	d.Shape, d.Offs = Runs, *sp
	p.Issue(d, nil, c, set)
	d.Shape, d.Offs = Strided, offs
	PutOffsScratch(sp)
}

// linkPenalty charges the world's link-degradation latency for one remote
// operation issued now: every message of the issue core and every atomic.
// With no plan it is one inlined branch.
func (p *PE) linkPenalty() {
	if p.world.plan != nil {
		p.penalty()
	}
}

// penalty is linkPenalty's charge, out of line so that linkPenalty inlines.
func (p *PE) penalty() {
	if pen := p.world.plan.LinkPenaltyNs(p.ID, p.Clock.Now()); pen > 0 {
		p.Clock.Advance(pen)
	}
}

// send does everything about the op's messages but move their bytes: per
// message the link penalty, the charge, the delivery step and the completion
// booking. It returns the first message whose payload is still to land and,
// for a single-message op, when it is visible (the runs' times are in
// p.visAt).
func (p *PE) send(d *RMA, c Price, set *fabric.NBIStreams) (landed int, vis float64) {
	w, clock := p.world, &p.Clock
	// The recovery path's own traffic is charged the penalty but crosses
	// natively.
	lossy := w.plan != nil && d.Shape != Forensic
	// Only Runs has more than one message; run i is visible at visAt[i], in
	// the PE's reused scratch, sized once to the op when it is short.
	msgs, visAt := d.Msgs(), p.visAt[:0]
	if d.Shape == Runs && cap(visAt) < msgs {
		visAt = make([]float64, 0, msgs)
	}
	for i := 0; i < msgs; i++ {
		p.linkPenalty()
		wire := clock.Now() // a blocking get's request leaves before the round trip it charges
		clock.Advance(c.Inject)
		if set != nil {
			wire = set.Reserve(clock.Now(), c.Transfer)
		}
		// A link without a plan is reliable: the identity, with no call.
		lands, acked := true, true
		at, done := reliable(wire, c.Lat, d.Get)
		if lossy {
			lands, at, done, acked = w.Transmit(p.ID, d.Target, wire, c.Lat, d.Get)
		}
		vis, done = at+c.Tail, done+c.Tail
		if set != nil {
			set.Note(d.Target, done)
		} else {
			// On a reliable link this merges nothing: the inline charge
			// already covers the round trip. Under the protocol the response
			// is the ack, and the get waits for it.
			clock.MergeAtLeast(done)
		}
		if d.Shape == Runs {
			visAt = append(visAt, vis)
		}
		if lands && acked {
			continue
		}
		// A message was lost or its link given up (lossy plans only). Land
		// what has arrived so far — this payload included, if it did — before
		// the give-up is published: a consumer whose predicate this message
		// satisfies must never observe the dead link first.
		arrived := i
		if lands {
			arrived++
		}
		p.visAt = visAt
		p.land(d, landed, arrived, vis)
		landed = i + 1
		if !acked {
			w.MarkUnreachable(p.ID, d.Target)
			if set == nil {
				// A blocking get has no deferred completion point to report
				// the dead link at: it error-terminates at the op itself.
				panic(fmt.Sprintf("pgas: PE %d: get from unreachable PE %d (retry exhaustion on lossy link): error termination", p.ID, d.Target))
			}
		}
	}
	if d.Shape == Runs {
		p.visAt = visAt
	}
	return landed, vis
}

// land stores messages [lo, hi) of a put in the target's partition: run i of
// a Runs op visible at p.visAt[i], the one message of any other shape at at.
// On a reliable link that is the whole op in one call — for Runs, one batched
// WriteRuns under a single target-lock acquisition.
func (p *PE) land(d *RMA, lo, hi int, at float64) {
	if d.Get || hi <= lo {
		return
	}
	w := p.world
	switch d.Shape {
	case Contig:
		w.Write(d.Target, d.Off, d.Local, at)
	case Runs:
		w.WriteRuns(d.Target, d.Off, d.Offs[lo:hi], d.Unit, d.Local[lo*d.Unit:hi*d.Unit], p.visAt[lo:hi])
	case Strided:
		w.WriteV(d.Target, d.Off, d.Stride, d.Unit, d.Local, at)
	case Signal:
		if len(d.Local) > 0 {
			w.Write(d.Target, d.Off, d.Local, at)
		}
		w.WriteUint64(d.Target, d.SigOff, d.SigVal, at)
	case Forensic:
		w.RepairWrite(d.Target, d.Off, d.Local, at)
	}
}

// fetch reads a get's bytes from the target's partition. The host-side copy
// happens at issue even for a nonblocking get, which is a legal serialisation
// of its undefined-until-complete window (the simulator always resolves it to
// "request served immediately").
func (p *PE) fetch(d *RMA) {
	w := p.world
	switch d.Shape {
	case Contig:
		w.Read(d.Target, d.Off, d.Local)
	case Runs:
		w.ReadRuns(d.Target, d.Off, d.Offs, d.Unit, d.Local)
	case Strided:
		w.ReadV(d.Target, d.Off, d.Stride, d.Unit, d.Local)
	case Forensic:
		v, ts := w.ReadUint64Ts(d.Target, d.Off)
		binary.NativeEndian.PutUint64(d.Local, v)
		p.Clock.MergeAtLeast(ts)
	}
}
