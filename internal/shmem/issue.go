package shmem

import (
	"encoding/binary"
	"fmt"

	"cafshmem/internal/fabric"
)

// The issue core: every put and get of the library — contiguous, vectored,
// strided, with a signal, repair or forensic; blocking or nonblocking on any
// context — is one rma descriptor issued on a context. The public entry points
// validate their arguments and fill the descriptor; what an operation costs,
// how each of its messages crosses the link (pgas.World.Transmit: natively,
// or through the ack/retransmit protocol of a lossy fault plan), where its
// bytes land and where its completion is booked are written once, here.

// shape says how an op's bytes lie on the target, and therefore which
// substrate call moves them.
type shape uint8

const (
	// contig is local's bytes at off.
	contig shape = iota
	// runs is len(offs) runs of unit bytes at off+offs[i], dense in local.
	// Each run is its own message, costed exactly as a contig op of unit
	// bytes; only the host-side data movement is batched.
	runs
	// strided is len(local)/unit elements of unit bytes at byte stride
	// stride from off, dense in local: one descriptor, one message.
	strided
	// signal is a contig put (possibly empty) followed by the 64-bit word
	// sigVal at sigOff, travelling as one message: both land at the same
	// time or neither does — a lost doorbell never advertises absent data.
	// Completion is signal-mediated, so the sanitizer does not track it.
	signal
	// forensic is a contig op of the recovery protocols: it reaches a failed
	// PE's frozen partition and, being the recovery path's own traffic,
	// stays outside the reliability protocol. A forensic get reads one word
	// into local and merges the word's visibility timestamp.
	forensic
)

// rma describes one put or get to the issue core.
type rma struct {
	get   bool
	shape shape
	// locality charges the memory-side cost of the strided remote walk
	// (fabric.StridedLocalityNs): the byte-level strided forms do, the typed
	// IPut/IGet never have.
	locality bool
	// nbi is a nonblocking op: it rides the streams of the context it is
	// issued on and is completed by that context's Quiet. A blocking put
	// joins the context's blocking horizon, a blocking get completes inline.
	nbi    bool
	target int
	off    int64  // absolute partition offset of the remote operand
	local  []byte // the dense local operand: a put's source, a get's destination
	offs   []int64
	unit   int
	stride int64
	sigOff int64
	sigVal uint64
}

// stridedCost is cost for the strided shape: elements, not bytes, and for the
// byte-level forms the memory-side walk.
func (d *rma) stridedCost(prof *fabric.CostProfile, intra bool, pairs int) (inject, transfer float64) {
	nelems := len(d.local) / d.unit
	if d.locality {
		inject = prof.StridedLocalityNs(nelems, d.unit, d.stride)
	}
	if d.nbi {
		return inject + prof.StridedNBIInjectNs(nelems), prof.StridedNBITransferNs(nelems, d.unit, intra, pairs)
	}
	inject += prof.StridedInjectNs(nelems, d.unit, intra, pairs)
	if d.get {
		inject += 2 * prof.DeliveryNs(intra, pairs)
	}
	return inject, 0
}

// sanitize records message i of the op with the runtime sanitizer: a put as
// outstanding until its context's Quiet (a nonblocking one together with src,
// the source buffer it must leave alone until then), a get as a read that
// must not race one.
func (d *rma) sanitize(san *sanitizer, me, ctx, i int, src []byte) {
	off, size := d.off, int64(len(d.local))
	switch d.shape {
	case signal:
		return
	case forensic:
		if d.get {
			return
		}
	case runs:
		off += d.offs[i]
		size = int64(d.unit)
		if src != nil {
			src = src[i*d.unit : (i+1)*d.unit]
		}
	case strided:
		size = int64(len(d.local)/d.unit-1)*d.stride + int64(d.unit)
	}
	switch {
	case d.get:
		san.checkRead(me, d.target, off, size)
	case d.nbi:
		san.recordPutNBI(me, ctx, d.target, off, size, src)
	default:
		san.recordPut(me, d.target, off, size)
	}
}

// msgs is the number of messages the op sends: one, or one per run.
func (d *rma) msgs() int {
	if d.shape == runs {
		return len(d.offs)
	}
	return 1
}

// issue runs one put or get on the context: send its messages, then move its
// bytes. src is a nonblocking put's source buffer (d.local again; nil for
// every other op): the sanitizer retains it until Quiet, and retaining a
// descriptor field instead would move every caller's buffer — the stack-held
// word of a P or G included — to the heap.
//
// The two halves are separate calls on purpose. send keeps a dozen values
// live; returning before the bytes move keeps its frame off the stack under
// the substrate's write path, the deepest point of a PE goroutine — where a
// few hundred bytes more grow the stack of every image of every short-lived
// world once more.
func (c *Ctx) issue(d *rma, src []byte) {
	landed, vis := c.send(d, src)
	if d.get {
		c.pe.fetch(d)
	} else {
		// On a reliable link this is the whole op in one call.
		c.pe.land(d, landed, d.msgs(), vis)
	}
}

// send does everything about the op's messages but move their bytes: per
// message the sanitizer hook, the link penalty, the cost, the delivery step
// and the completion booking. It returns the first message whose payload is
// still to land and, for a single-message op, when it is visible (the runs'
// times are in pe.visAt).
func (c *Ctx) send(d *rma, src []byte) (landed int, vis float64) {
	pe := c.pe
	w, me, clock := pe.world, pe.p.ID, &pe.p.Clock
	intra, pairs := pe.intra(d.target), pe.pairs()
	prof := w.prof
	lat := prof.DeliveryNs(intra, pairs)
	// What one message costs: inject is the initiator's CPU charge, transfer
	// its occupancy of the NIC pipe. A blocking op charges its transfer
	// inline; a blocking get charges the whole round trip.
	var inject, transfer float64
	n := len(d.local)
	switch d.shape {
	case runs:
		n = d.unit
	case signal:
		n += 8
	}
	switch {
	case d.shape == strided:
		inject, transfer = d.stridedCost(prof, intra, pairs)
	case d.nbi:
		inject, transfer = prof.NBIInjectNs(), prof.NBITransferNs(n, intra, pairs)
	case d.get:
		inject = prof.GetNs(n, intra, pairs)
	default:
		inject = prof.PutInjectNs(n, intra, pairs)
	}
	// set is where completion is booked: the context's streams, or its
	// blocking horizon (a stream set with no pipe). A blocking get has none:
	// it completes before it returns.
	var set *fabric.NBIStreams
	switch {
	case d.nbi:
		set = &c.nbi
	case !d.get:
		set = &c.blocking
	}
	// Only runs has more than one message; run i is visible at visAt[i], in
	// the PE's reused scratch.
	msgs, visAt := d.msgs(), pe.visAt[:0]
	for i := 0; i < msgs; i++ {
		if w.san != nil {
			d.sanitize(w.san, me, c.id, i, src)
		}
		pe.linkPenalty()
		wire := clock.Now() // a blocking get's request leaves before the round trip it charges
		clock.Advance(inject)
		if set != nil {
			wire = set.Reserve(clock.Now(), transfer)
		}
		lands, done, acked := true, wire+lat, true
		vis = done
		if d.shape != forensic {
			lands, vis, done, acked = w.pw.Transmit(w.fplan, me, d.target, wire, lat, d.get)
		}
		if set != nil {
			set.Note(d.target, done)
		} else {
			// On a reliable link this merges nothing: the inline charge
			// already covers the round trip. Under the protocol the response
			// is the ack, and the get waits for it.
			clock.MergeAtLeast(done)
		}
		if d.shape == runs {
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
		pe.visAt = visAt
		pe.land(d, landed, arrived, vis)
		landed = i + 1
		if !acked {
			c.giveUp(d)
		}
	}
	if d.shape == runs {
		pe.visAt = visAt
	}
	return landed, vis
}

// giveUp declares the op's destination unreachable after retry exhaustion. A
// blocking get has no deferred completion point to report that at, so it
// error-terminates at the op itself.
func (c *Ctx) giveUp(d *rma) {
	me := c.pe.p.ID
	c.pe.world.pw.MarkUnreachable(me, d.target)
	if d.get && !d.nbi {
		panic(fmt.Sprintf("shmem: PE %d: get from unreachable PE %d (retry exhaustion on lossy link): error termination", me, d.target))
	}
}

// land stores messages [lo, hi) of a put in the target's partition: run i of
// a runs op visible at pe.visAt[i], the one message of any other shape at at.
// On a reliable link that is the whole op in one call — for runs, one batched
// WriteRuns under a single target-lock acquisition.
func (pe *PE) land(d *rma, lo, hi int, at float64) {
	if d.get || hi <= lo {
		return
	}
	pw := pe.world.pw
	switch d.shape {
	case contig:
		pw.Write(d.target, d.off, d.local, at)
	case runs:
		pw.WriteRuns(d.target, d.off, d.offs[lo:hi], d.unit, d.local[lo*d.unit:hi*d.unit], pe.visAt[lo:hi])
	case strided:
		pw.WriteV(d.target, d.off, d.stride, d.unit, d.local, at)
	case signal:
		if len(d.local) > 0 {
			pw.Write(d.target, d.off, d.local, at)
		}
		pw.WriteUint64(d.target, d.sigOff, d.sigVal, at)
	case forensic:
		pw.RepairWrite(d.target, d.off, d.local, at)
	}
}

// fetch reads a get's bytes from the target's partition. The host-side copy
// happens at issue even for a nonblocking get, which is a legal serialisation
// of its undefined-until-quiet window (the simulator always resolves it to
// "request served immediately").
func (pe *PE) fetch(d *rma) {
	pw := pe.world.pw
	switch d.shape {
	case contig:
		pw.Read(d.target, d.off, d.local)
	case runs:
		pw.ReadRuns(d.target, d.off, d.offs, d.unit, d.local)
	case strided:
		pw.ReadV(d.target, d.off, d.stride, d.unit, d.local)
	case forensic:
		v, ts := pw.ReadUint64Ts(d.target, d.off)
		binary.NativeEndian.PutUint64(d.local, v)
		pe.p.Clock.MergeAtLeast(ts)
	}
}

// span panics unless the n bytes at offset off lie inside sym, and returns
// their absolute partition offset.
func (sym Sym) span(op string, off, n int64) int64 {
	if off < 0 || off+n > sym.Size {
		sym.overflow(op, off, n)
	}
	return sym.Off + off
}

// overflow is span's panic, kept out of line so that span inlines.
//
//go:noinline
func (sym Sym) overflow(op string, off, n int64) {
	panic(fmt.Sprintf("shmem: %s of %d bytes at offset %d overflows %d-byte symmetric object", op, n, off, sym.Size))
}

// stridedSpan validates a strided remote operand — nbytes of elemSize-byte
// elements at byte stride strideBytes from off within sym — and returns its
// absolute partition offset, or ok=false when there is nothing to transfer.
func (sym Sym) stridedSpan(op string, off, strideBytes int64, elemSize, nbytes int) (abs int64, ok bool) {
	if elemSize <= 0 || nbytes%elemSize != 0 {
		panic(fmt.Sprintf("shmem: %s operand not a whole number of elements", op))
	}
	nelems := nbytes / elemSize
	if nelems == 0 {
		return 0, false
	}
	if strideBytes < int64(elemSize) {
		panic(fmt.Sprintf("shmem: %s stride smaller than element", op))
	}
	need := off + int64(nelems-1)*strideBytes + int64(elemSize)
	if off < 0 || need > sym.Size {
		panic(fmt.Sprintf("shmem: %s overflows symmetric object (need %d bytes, have %d)", op, need, sym.Size))
	}
	return sym.Off + off, true
}

// runsSpan validates a vectored operand: len(offs) runs of runBytes bytes,
// dense in local, each inside sym.
func (sym Sym) runsSpan(op string, offs []int64, runBytes int, local []byte) {
	if runBytes <= 0 || len(local) != len(offs)*runBytes {
		panic(fmt.Sprintf("shmem: %s operand does not match runs", op))
	}
	for _, off := range offs {
		sym.span(op, off, int64(runBytes))
	}
}
