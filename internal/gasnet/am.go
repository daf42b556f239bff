package gasnet

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// MaxArgs is the most arguments a request or reply carries (GASNet's
// gasnet_AMMaxArgs is at least 16).
const MaxArgs = 16

// Token identifies an in-flight active message to its handler and provides
// the handler's view of the target PE: its memory and the reply channel. Each
// endpoint has one, reused by its every request: a handler runs to completion
// on the requester's goroutine, so the token is valid only while it runs.
type Token struct {
	world   *World
	pe      *pgas.PE   // the requester's: the handler runs on its goroutine
	Src     int        // requesting node
	Dst     int        // node the handler runs on
	arrive  float64    // when the request reaches Dst: flight after the clock
	flight  pgas.Price // the request's flight after injection
	replied bool
	nreply  int
	reply   [MaxArgs]int64
}

// Write stores into the handler node's segment; the write carries the
// message arrival time (handlers run on arrival).
func (t *Token) Write(off int64, data []byte) {
	t.world.pw.Write(t.Dst, off, data, t.arrive)
}

// Read loads from the handler node's segment.
func (t *Token) Read(off int64, dst []byte) {
	t.world.pw.Read(t.Dst, off, dst)
}

// ReadU64 loads a 64-bit word from the handler node's segment.
func (t *Token) ReadU64(off int64) uint64 { return t.world.pw.ReadUint64(t.Dst, off) }

// WriteU64 stores a 64-bit word into the handler node's segment.
func (t *Token) WriteU64(off int64, v uint64) { t.world.pw.WriteUint64(t.Dst, off, v, t.arrive) }

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

// runHandler executes the handler for (idx) against target under the
// per-node AM lock, charging target-side handler cost, and returns the reply
// (nil if none) plus the virtual time the reply arrives back at the source.
// The handler sees args in the endpoint's argument array and replies into its
// token, so a request allocates nothing; the reply is valid until the
// endpoint's next active message.
func (ep *EP) runHandler(target, idx int, payload []byte, args []int64, wantReply bool) ([]int64, float64) {
	ep.checkTarget(target)
	w := ep.world
	h := w.handler(idx)
	intra, pairs := ep.intra(target), ep.pairs()
	prof := w.prof

	// Source-side injection: overhead plus payload streaming.
	ep.p.Clock.Advance(prof.PutInjectNs(len(payload), intra, pairs))
	tok := &ep.tok
	*tok = Token{world: w, pe: ep.p, Src: ep.p.ID, Dst: target, flight: pgas.Price{Lat: prof.DeliveryNs(intra, pairs), Tail: prof.AMHandlerNs}}
	tok.land()
	n := copy(ep.args[:], args[:checkArgs(len(args))])
	am := &w.eps[target].amMu
	am.Lock()
	h(tok, payload, ep.args[:n:n])
	am.Unlock()

	replyAt := tok.arrive + prof.DeliveryNs(intra, pairs)
	if wantReply {
		if !tok.replied {
			return nil, replyAt
		}
		return tok.reply[:tok.nreply:tok.nreply], replyAt
	}
	// Fire-and-forget: the source tracks remote completion via the implicit
	// sync set, like a put.
	ep.blocking.Note(target, tok.arrive)
	return nil, replyAt
}

// RequestShort fires a short active message (args only) without waiting for
// a reply (gasnet_AMRequestShort, fire-and-forget usage).
func (ep *EP) RequestShort(target, idx int, args ...int64) {
	ep.runHandler(target, idx, nil, args, false)
}

// RequestMedium fires an active message carrying a payload that the handler
// receives as a buffer (gasnet_AMRequestMedium).
func (ep *EP) RequestMedium(target, idx int, payload []byte, args ...int64) {
	ep.runHandler(target, idx, payload, args, false)
}

// RequestLong deposits the payload into the target segment at off and then
// runs the handler (gasnet_AMRequestLong).
func (ep *EP) RequestLong(target, idx int, seg Seg, off int64, payload []byte, args ...int64) {
	ep.checkTarget(target)
	// The bulk data moves like a put; the handler runs after it lands.
	ep.Put(target, seg, off, payload)
	ep.runHandler(target, idx, nil, args, false)
}

// RequestSync fires a short request and blocks for the handler's reply,
// returning its arguments, which stay valid until the endpoint's next active
// message. This is the primitive the CAF-over-GASNet transport uses to emulate
// remote atomics, and it is exactly where the AM handler cost makes
// GASNet-based locks slower than SHMEM-based ones.
func (ep *EP) RequestSync(target, idx int, args ...int64) []int64 {
	reply, replyAt := ep.runHandler(target, idx, nil, args, true)
	if reply == nil {
		panic("gasnet: RequestSync handler did not reply")
	}
	ep.p.Clock.MergeAtLeast(replyAt)
	return reply
}
