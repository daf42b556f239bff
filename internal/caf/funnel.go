package caf

import "cafshmem/internal/pgas"

// The op funnel: every communication operation of the runtime passes through
// one of five entry points — issue (RMA), atomic, complete, rendezvous
// (barrier), wait/waitStat — and each does the same three things in the same
// order: count the operation in Stats, open a tracer span, and hand the
// operation to the backend or, for a shape the backend's Caps lack, lower it
// through the fallback here. The fallback is of two kinds. A vectored or
// strided transfer on a backend with only contiguous calls becomes one
// contiguous call per run or element inside the same span: one operation,
// issued the long way. A signal on a backend without put-with-signal becomes
// quiet + put + quiet re-entering the funnel: three operations, each counted
// and traced as what it is.

// directIssueNs is the fixed instruction-issue cost of a direct load/store
// access (no library involvement at all).
const directIssueNs = 20

// rmaOp is an image's one transfer descriptor: the pgas.RMA every library
// issues, its offsets absolute, and what only the funnel reads. xfer fills it,
// the caller refines it in place, the funnel hands the backend &op.RMA: an
// Image lives on the heap and belongs to one goroutine, so the pointer makes
// nothing escape and an operation allocates nothing.
type rmaOp struct {
	pgas.RMA
	nbi    bool // put only: leave it in flight until the next completion
	direct bool // contiguous only: use a load/store when target shares the node
}

// xfer makes the image's descriptor the contiguous transfer of buf at (target,
// off) — a put, with get a get — valid until the next xfer. Another shape's
// fields the caller sets with the shape; unset, nothing reads them.
func (img *Image) xfer(get bool, target int, off int64, buf []byte) *rmaOp {
	op := &img.op
	op.Get, op.Shape, op.Target, op.Off, op.Local = get, pgas.Contig, target, off, buf
	op.nbi, op.direct = false, false
	return op
}

// issue performs op, the image's descriptor, and reports whether it was served
// by a direct load/store, which is complete at return. A transfer's descriptor
// comes back as it went in: a caller may issue it again at another offset.
// op.nbi must be clear on a backend without Caps.NBI (Coarray.section, the one
// issuer of nonblocking transfers, sees to it).
func (img *Image) issue(op *rmaOp) (direct bool) {
	caps := img.caps
	if op.Shape == pgas.Signal && !caps.Signal {
		// Complete everything, post the flag as an ordinary put, complete it:
		// always correct, just stronger.
		img.quiet()
		pgas.Store(img.word[:], op.SigVal)
		img.issue(img.xfer(false, op.Target, op.SigOff, img.word[:]))
		img.quiet()
		return false
	}
	if op.direct && caps.Direct && img.opts.Machine.SameNode(img.local.ID, op.Target) {
		img.direct(op)
		return true
	}
	img.count(op)
	start := img.traceStart()
	bytes := len(op.Local)
	switch {
	case op.Shape == pgas.Signal:
		bytes = 8 // the signal word
		img.be.rma(&op.RMA, op.nbi)
	case op.Shape == pgas.Runs && !caps.Vectored, op.Shape == pgas.Strided && !caps.Strided:
		whole := *op
		op.Shape = pgas.Contig
		for i := 0; i*whole.Unit < bytes; i++ {
			op.Off, op.Local = whole.Off+int64(i)*whole.Stride, whole.Local[i*whole.Unit:(i+1)*whole.Unit]
			if whole.Shape == pgas.Runs {
				op.Off = whole.Offs[i]
			}
			img.be.rma(&op.RMA, op.nbi)
		}
		*op = whole
	default:
		img.be.rma(&op.RMA, op.nbi)
	}
	img.trace(rmaKinds[op.Shape][op.dir()], op.Target, bytes, start)
	return false
}

// direct implements the paper's §VII future work: a same-node access through
// the memory the library exposes (shmem_ptr), at memory-copy cost — roughly
// twice the intra-node library bandwidth, with none of its per-call latency
// (no injection, no loopback, no completion tracking).
func (img *Image) direct(op *rmaOp) {
	img.Stats.DirectOps++
	start := img.traceStart()
	clock, w, buf := &img.local.Clock, img.local.World(), op.Local
	clock.Advance(directIssueNs + float64(len(buf))*img.prof.IntraGapNsPerByte/2)
	if op.Get {
		w.Read(op.Target, op.Off, buf)
		img.trace("direct-get", op.Target, len(buf), start)
	} else {
		w.Write(op.Target, op.Off, buf, clock.Now())
		img.trace("direct-put", op.Target, len(buf), start)
	}
}

// count records op in Stats: a vectored transfer counts its runs, a blocking
// strided one is a strided call and nothing else, a nonblocking one of any
// shape is an async put. The forensic read is the lock repair's, not the
// program's.
func (img *Image) count(op *rmaOp) {
	s := &img.Stats
	n := int64(1)
	if op.Shape == pgas.Runs {
		n = int64(len(op.Offs))
	}
	if op.Shape == pgas.Strided {
		s.StridedCalls++
	}
	switch {
	case op.Shape == pgas.Forensic:
	case op.nbi:
		s.AsyncPuts += n
	case op.Shape == pgas.Strided:
	case op.Get:
		s.Gets += n
	default:
		s.Puts += n
	}
}

// rmaKinds are the tracer's names for transfers, by shape and direction.
var rmaKinds = [...][3]string{ // get, put, put nbi
	pgas.Contig:   {"get", "put", "put_nbi"},
	pgas.Runs:     {"getv", "putv", "putv_nbi"},
	pgas.Strided:  {"iget", "iput", "iput_nbi"},
	pgas.Signal:   {"", "put_signal", "put_signal_nbi"},
	pgas.Forensic: {"get_stat", "", ""},
}

// dir indexes rmaKinds' columns.
func (op *rmaOp) dir() int {
	switch {
	case op.nbi:
		return 2
	case op.Get:
		return 0
	}
	return 1
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
	img.issue(img.xfer(false, target, off, img.word[:]))
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
