package gasnet

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// MaxArgs is the most arguments a request or reply carries (GASNet's
// gasnet_AMMaxArgs is at least 16).
const MaxArgs = 16

// Token identifies an in-flight active message to its handler and provides
// the handler's view of the target PE: atomics on its memory and the reply
// channel. Each endpoint has one, reused by its every request: a handler runs
// to completion on the requester's goroutine, so the token is valid only while
// it runs.
type Token struct {
	pe      *pgas.PE   // the requester's: the handler runs on its goroutine
	Src     int        // requesting node
	Dst     int        // node the handler runs on
	arrive  float64    // when the request reaches Dst: flight after the clock
	flight  pgas.Price // the request's flight after injection
	replied bool
	nreply  int
	reply   [MaxArgs]int64
}

// RMW64 applies an atomic read-modify-write to the word at off in the handler
// node's segment, as the requester's atomic arriving with the request
// (pgas.PE.RMW64Stat); ok is false when the node has failed. Handler
// atomicity (the per-node AM mutex) makes multi-word handler bodies atomic
// too; RMW64 and CompareSwap64 are for single-word updates.
func (t *Token) RMW64(off int64, op pgas.AtomicOp, operand uint64) (old uint64, ok bool) {
	old, ok = t.pe.RMW64Stat(t.Dst, off, op, operand, t.flight)
	t.land()
	return old, ok
}

// CompareSwap64 is RMW64's compare-and-swap (pgas.PE.CompareSwap64Stat).
func (t *Token) CompareSwap64(off int64, expected, desired uint64) (old uint64, ok bool) {
	old, ok = t.pe.CompareSwap64Stat(t.Dst, off, expected, desired, t.flight)
	t.land()
	return old, ok
}

// land sets arrive from the clock, which an atomic's link penalty moves.
func (t *Token) land() { t.arrive = t.pe.Clock.Now() + t.flight.Lat + t.flight.Tail }

// Reply sends reply arguments back to the requester (gasnet_AMReplyShort).
// At most one reply per request, as in GASNet.
func (t *Token) Reply(args ...int64) {
	if t.replied {
		panic("gasnet: handler replied twice")
	}
	t.replied = true
	t.nreply = copy(t.reply[:], args[:checkArgs(len(args))])
}

// checkArgs panics unless n arguments fit one message, and returns n.
func checkArgs(n int) int {
	if n > MaxArgs {
		panic(fmt.Sprintf("gasnet: %d active-message arguments, at most %d", n, MaxArgs))
	}
	return n
}

// RequestSync fires a short request (args only) and blocks for the handler's
// reply, returning its arguments, which stay valid until the endpoint's next
// active message. The handler runs against target under the per-node AM
// lock, charging the target-side handler cost, and sees args in the
// endpoint's argument array and replies into its token, so a request
// allocates nothing. This is the primitive the CAF-over-GASNet transport uses
// to emulate remote atomics, and it is exactly where the AM handler cost makes
// GASNet-based locks slower than SHMEM-based ones.
func (ep *EP) RequestSync(target, idx int, args ...int64) []int64 {
	ep.checkTarget(target)
	w := ep.world
	h := w.handler(idx)
	intra, pairs := ep.intra(target), ep.pairs()
	prof := w.prof

	// Source-side injection: the overhead of a message with no payload.
	ep.p.Clock.Advance(prof.PutInjectNs(0, intra, pairs))
	tok := &ep.tok
	*tok = Token{pe: ep.p, Src: ep.p.ID, Dst: target, flight: pgas.Price{Lat: prof.DeliveryNs(intra, pairs), Tail: prof.AMHandlerNs}}
	tok.land()
	n := copy(ep.args[:], args[:checkArgs(len(args))])
	am := &w.eps[target].amMu
	am.Lock()
	h(tok, ep.args[:n:n])
	am.Unlock()

	if !tok.replied {
		panic("gasnet: RequestSync handler did not reply")
	}
	ep.p.Clock.MergeAtLeast(tok.arrive + prof.DeliveryNs(intra, pairs))
	return tok.reply[:tok.nreply:tok.nreply]
}
