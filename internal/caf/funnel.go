package caf

import "cafshmem/internal/pgas"

// The op funnel: every communication operation of the runtime passes through
// one of five entry points — issue (RMA), atomic, complete, rendezvous
// (barrier), wait/waitStat — and each does the same three things in the same
// order: count the operation
// in Stats, open a tracer span, and hand the operation to the backend or, for
// a shape the backend's Caps lack, lower it through the fallback here. The
// fallback is of two kinds. A vectored or strided transfer on a backend with
// only contiguous calls becomes one contiguous call per run or element inside
// the same span: one operation, issued the long way. A signal on a backend
// without put-with-signal becomes quiet + put + quiet re-entering the funnel:
// three operations, each counted and traced as what it is.

// directIssueNs is the fixed instruction-issue cost of a direct load/store
// access (no library involvement at all).
const directIssueNs = 20

// issue performs one RMA operation on buf and reports whether it was served
// by a direct load/store, which is complete at return. op.nbi must be clear
// on a backend without Caps.NBI (Coarray.section, the one issuer of
// nonblocking transfers, sees to it).
func (img *Image) issue(op *rmaOp, buf []byte) (direct bool) {
	caps := img.caps
	if op.shape == signal && !caps.Signal {
		// Complete everything, post the flag as an ordinary put, complete it:
		// always correct, just stronger.
		img.quiet()
		img.issue(&rmaOp{put: true, target: op.target, off: op.off}, buf)
		img.quiet()
		return false
	}
	if op.direct && caps.Direct && img.opts.Machine.SameNode(img.local.ID, op.target) {
		img.direct(op, buf)
		return true
	}
	img.count(op)
	start := img.traceStart()
	switch {
	case op.shape == vectored && !caps.Vectored:
		for i, off := range op.offs {
			img.be.rma(op.pieceAt(off), buf[i*op.run:(i+1)*op.run])
		}
	case op.shape == strided && !caps.Strided:
		for k := 0; k*op.elem < len(buf); k++ {
			img.be.rma(op.pieceAt(op.off+int64(k)*op.stride), buf[k*op.elem:(k+1)*op.elem])
		}
	default:
		img.be.rma(*op, buf)
	}
	img.trace(rmaKinds[op.shape][op.dir()], op.target, len(buf), start)
	return false
}

// pieceAt is the contiguous transfer of one run or element of op, at off.
func (op *rmaOp) pieceAt(off int64) rmaOp {
	return rmaOp{put: op.put, nbi: op.nbi, target: op.target, off: off}
}

// direct implements the paper's §VII future work: a same-node access through
// the memory the library exposes (shmem_ptr), at memory-copy cost — roughly
// twice the intra-node library bandwidth, with none of its per-call latency
// (no injection, no loopback, no completion tracking).
func (img *Image) direct(op *rmaOp, buf []byte) {
	img.Stats.DirectOps++
	start := img.traceStart()
	clock, w := &img.local.Clock, img.local.World()
	clock.Advance(directIssueNs + float64(len(buf))*img.prof.IntraGapNsPerByte/2)
	if op.put {
		w.Write(op.target, op.off, buf, clock.Now())
		img.trace("direct-put", op.target, len(buf), start)
	} else {
		w.Read(op.target, op.off, buf)
		img.trace("direct-get", op.target, len(buf), start)
	}
}

// count records op in Stats: a vectored transfer counts its runs, a blocking
// strided one is a strided call and nothing else, a nonblocking one of any
// shape is an async put. The forensic read is the lock repair's, not the
// program's.
func (img *Image) count(op *rmaOp) {
	s := &img.Stats
	n := int64(1)
	if op.shape == vectored {
		n = int64(len(op.offs))
	}
	if op.shape == strided {
		s.StridedCalls++
	}
	switch {
	case op.shape == forensic:
	case op.nbi:
		s.AsyncPuts += n
	case op.shape == strided:
	case op.put:
		s.Puts += n
	default:
		s.Gets += n
	}
}

// rmaKinds are the tracer's names for transfers, by shape and direction.
var rmaKinds = [...][3]string{ // get, put, put nbi
	contiguous: {"get", "put", "put_nbi"},
	vectored:   {"getv", "putv", "putv_nbi"},
	strided:    {"iget", "iput", "iput_nbi"},
	signal:     {"", "put_signal", "put_signal_nbi"},
	forensic:   {"get_stat", "", ""},
}

// dir indexes rmaKinds' columns.
func (op *rmaOp) dir() int {
	switch {
	case op.nbi:
		return 2
	case op.put:
		return 1
	}
	return 0
}

// atomic applies one remote atomic to the 64-bit word at (target, off) — op
// with operand a, or opCAS storing b iff the word equals a — and returns the
// previous value. With stat (fault-tolerant mode only) a failed target leaves
// ok false.
func (img *Image) atomic(op pgas.AtomicOp, target int, off, a, b int64, stat bool) (old int64, ok bool) {
	img.Stats.Atomics++
	start := img.traceStart()
	old, ok = img.be.atomic(op, target, off, a, b, stat)
	kind := "amo"
	if stat {
		kind = "amo_stat"
	}
	img.trace(kind, target, 8, start)
	return old, ok
}

// amo is atomic without STAT.
func (img *Image) amo(op pgas.AtomicOp, target int, off, a, b int64) int64 {
	old, _ := img.atomic(op, target, off, a, b, false)
	return old
}

// complete waits for remote completion of this image's outstanding transfers
// toward image index target, or all of them when target is negative — which
// is also what a backend without per-image completion does for one target:
// always correct, just stronger. With stat, failed targets are returned
// instead of terminating the job (nil on a backend without fault support).
func (img *Image) complete(target int, stat bool) error {
	if !img.caps.PerImage {
		target = -1
	}
	stat = stat && img.caps.FaultStat
	img.Stats.Quiets++
	start := img.traceStart()
	err := img.be.complete(target, stat)
	kind := "quiet"
	switch {
	case target >= 0 && stat:
		kind = "quiet_image_stat"
	case target >= 0:
		kind = "quiet_image"
	case stat:
		kind = "quiet_stat"
	}
	img.trace(kind, target, 0, start)
	return err
}

// quiet completes outstanding puts per the §IV-B translation rule.
func (img *Image) quiet() { _ = img.complete(-1, false) } // no stat: nothing to report

// maybeQuiet applies the conservative quiet-after-put rule unless the
// ablation option deferred it to synchronisation points.
func (img *Image) maybeQuiet() {
	if !img.opts.DeferredQuiet {
		img.quiet()
	}
}

// barrier synchronises all images with completion semantics.
func (img *Image) barrier() { _ = img.rendezvous(false) } // no stat: nothing to report

// rendezvous is barrier; with stat (fault-tolerant mode only) it completes
// among the survivors and returns the failed.
func (img *Image) rendezvous(stat bool) error {
	start := img.traceStart()
	err := img.be.barrier(stat)
	kind := "barrier"
	if stat {
		kind = "barrier_stat"
	}
	img.trace(kind, -1, 0, start)
	return err
}

// wait spins on the local 64-bit word at off until "word cmp operand" holds
// (shmem_wait_until's typed form), adopting the causal timestamp of the
// satisfying write.
func (img *Image) wait(off int64, cmp pgas.Cmp, operand int64) {
	start := img.traceStart()
	_, ts := img.local.WaitWord(off, cmp, operand)
	img.waited(ts, "wait", start)
}

// waitStat is wait with a fault hook: onEvent runs at every wake-up and a
// non-nil result abandons the wait with that error.
func (img *Image) waitStat(off int64, cmp pgas.Cmp, operand int64, onEvent func() error) error {
	start := img.traceStart()
	_, ts, err := img.local.WaitWordStat(off, cmp, operand, onEvent)
	if err != nil {
		return err
	}
	img.waited(ts, "wait_stat", start)
	return nil
}

// waited adopts the satisfying write's timestamp ts and charges the wake-up.
func (img *Image) waited(ts float64, kind string, start float64) {
	img.local.Clock.MergeAtLeast(ts)
	img.local.Clock.Advance(img.prof.OverheadNs)
	img.trace(kind, -1, 0, start)
}

// putWord writes one 64-bit control word into image index target's (0-based)
// partition with an ordinary put, staged through the image's word buffer.
func (img *Image) putWord(target int, off int64, v uint64) {
	pgas.Store(img.word[:], v)
	img.issue(&rmaOp{put: true, target: target, off: off}, img.word[:])
}

// traceStart opens a tracer span: the virtual time now, unused with tracing
// off.
func (img *Image) traceStart() float64 {
	if img.opts.Tracer == nil {
		return 0
	}
	return img.local.Clock.Now()
}

// trace closes the span opened at start. target is a 0-based image index,
// negative for collective and local operations.
func (img *Image) trace(op string, target, bytes int, start float64) {
	if img.opts.Tracer != nil {
		img.record(op, target, bytes, start)
	}
}

func (img *Image) record(op string, target, bytes int, start float64) {
	img.opts.Tracer.record(TraceEvent{Image: img.local.ID + 1, Op: op, Target: target + 1, Bytes: bytes,
		Start: start, End: img.local.Clock.Now()})
}
