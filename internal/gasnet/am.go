package gasnet

import "cafshmem/internal/pgas"

// Token identifies an in-flight active message to its handler and provides
// the handler's view of the target PE: its memory and the reply channel.
type Token struct {
	world   *World
	Src     int // requesting node
	Dst     int // node the handler runs on
	arrive  float64
	replied bool
	reply   []int64
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

// RMW64 applies an atomic read-modify-write in the handler node's segment.
// Handler atomicity (the world's per-node AM mutex) makes multi-word handler
// bodies atomic too; this helper is for single-word updates.
func (t *Token) RMW64(off int64, op pgas.AtomicOp, operand uint64) uint64 {
	return t.world.pw.RMW64(t.Dst, off, op, operand, t.arrive)
}

// Reply sends reply arguments back to the requester (gasnet_AMReplyShort).
// At most one reply per request, as in GASNet.
func (t *Token) Reply(args ...int64) {
	if t.replied {
		panic("gasnet: handler replied twice")
	}
	t.replied = true
	t.reply = append([]int64(nil), args...)
}

// runHandler executes the handler for (idx) against target under the
// per-node AM lock, charging target-side handler cost, and returns the reply
// (nil if none) plus the virtual time the reply arrives back at the source.
func (ep *EP) runHandler(target, idx int, payload []byte, args []int64, wantReply bool) ([]int64, float64) {
	ep.checkTarget(target)
	w := ep.world
	h := w.handler(idx)
	intra, pairs := ep.intra(target), ep.pairs()
	prof := w.prof

	// Source-side injection: overhead plus payload streaming.
	ep.p.Clock.Advance(prof.PutInjectNs(len(payload), intra, pairs))
	arrive := ep.p.Clock.Now() + prof.DeliveryNs(intra, pairs) + prof.AMHandlerNs

	tok := &Token{world: w, Src: ep.p.ID, Dst: target, arrive: arrive}
	w.amMu[target].Lock()
	h(tok, payload, args)
	w.amMu[target].Unlock()

	replyAt := arrive + prof.DeliveryNs(intra, pairs)
	if wantReply {
		return tok.reply, replyAt
	}
	// Fire-and-forget: the source tracks remote completion via the implicit
	// sync set, like a put.
	ep.blocking.Note(target, arrive)
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
// returning its arguments. This is the primitive the CAF-over-GASNet
// transport uses to emulate remote atomics, and it is exactly where the AM
// handler cost makes GASNet-based locks slower than SHMEM-based ones.
func (ep *EP) RequestSync(target, idx int, args ...int64) []int64 {
	reply, replyAt := ep.runHandler(target, idx, nil, args, true)
	if reply == nil {
		panic("gasnet: RequestSync handler did not reply")
	}
	ep.p.Clock.MergeAtLeast(replyAt)
	return reply
}
