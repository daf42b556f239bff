package caf

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// Tracer records every communication operation the runtime issues, with
// virtual-time start/end stamps — the observability layer for understanding
// where a CAF program's time goes (which is how the paper's own evaluation
// reasons: put counts, strided call counts, lock hand-offs). Install one via
// Options.Tracer; it is shared by all images and safe for concurrent use.
type Tracer struct {
	mu     sync.Mutex
	events []TraceEvent
}

// TraceEvent is one recorded communication operation.
type TraceEvent struct {
	Image  int     // issuing image, 1-based
	Op     string  // "put", "get", "iput", "iget", "amo", "quiet", "barrier", "wait"
	Target int     // target image, 1-based (0 for collectives/local ops)
	Bytes  int     // payload size (0 where not applicable)
	Start  float64 // virtual ns at issue
	End    float64 // virtual ns at return
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

func (t *Tracer) record(ev TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a snapshot of the recorded events, ordered by start time.
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	out := append([]TraceEvent(nil), t.events...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Reset discards all recorded events.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}

// OpSummary aggregates one operation kind.
type OpSummary struct {
	Op      string
	Count   int
	Bytes   int64
	TotalNs float64
}

// Summary aggregates the trace per operation kind, ordered by total time
// descending.
func (t *Tracer) Summary() []OpSummary {
	agg := map[string]*OpSummary{}
	for _, ev := range t.Events() {
		s := agg[ev.Op]
		if s == nil {
			s = &OpSummary{Op: ev.Op}
			agg[ev.Op] = s
		}
		s.Count++
		s.Bytes += int64(ev.Bytes)
		s.TotalNs += ev.End - ev.Start
	}
	out := make([]OpSummary, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalNs > out[j].TotalNs })
	return out
}

// WriteCSV writes the trace as CSV (header + one row per event).
func (t *Tracer) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "image,op,target,bytes,start_ns,end_ns"); err != nil {
		return err
	}
	for _, ev := range t.Events() {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%.1f,%.1f\n",
			ev.Image, ev.Op, ev.Target, ev.Bytes, ev.Start, ev.End); err != nil {
			return err
		}
	}
	return nil
}

// tracingTransport decorates any Transport, recording each call.
type tracingTransport struct {
	inner Transport
	tr    *Tracer
}

func (t *tracingTransport) span(op string, target, bytes int, f func()) {
	start := t.inner.Clock().Now()
	f()
	t.tr.record(TraceEvent{
		Image: t.inner.PE() + 1, Op: op, Target: target + 1, Bytes: bytes,
		Start: start, End: t.inner.Clock().Now(),
	})
}

func (t *tracingTransport) Name() string { return t.inner.Name() + "+trace" }
func (t *tracingTransport) PE() int      { return t.inner.PE() }
func (t *tracingTransport) NPEs() int    { return t.inner.NPEs() }

func (t *tracingTransport) Malloc(size int64) int64 { return t.inner.Malloc(size) }
func (t *tracingTransport) Free(off, size int64)    { t.inner.Free(off, size) }

func (t *tracingTransport) PutMem(target int, off int64, data []byte) {
	t.span("put", target, len(data), func() { t.inner.PutMem(target, off, data) })
}

func (t *tracingTransport) GetMem(target int, off int64, dst []byte) {
	t.span("get", target, len(dst), func() { t.inner.GetMem(target, off, dst) })
}

func (t *tracingTransport) PutMemV(target int, offs []int64, runBytes int, src []byte) {
	t.span("putv", target, len(src), func() { t.inner.PutMemV(target, offs, runBytes, src) })
}

func (t *tracingTransport) GetMemV(target int, offs []int64, runBytes int, dst []byte) {
	t.span("getv", target, len(dst), func() { t.inner.GetMemV(target, offs, runBytes, dst) })
}

func (t *tracingTransport) PutStrided1D(target int, off, strideBytes int64, elemSize int, src []byte) {
	t.span("iput", target, len(src), func() { t.inner.PutStrided1D(target, off, strideBytes, elemSize, src) })
}

func (t *tracingTransport) GetStrided1D(target int, off, strideBytes int64, elemSize int, dst []byte) {
	t.span("iget", target, len(dst), func() { t.inner.GetStrided1D(target, off, strideBytes, elemSize, dst) })
}

func (t *tracingTransport) Quiet() {
	t.span("quiet", -1, 0, t.inner.Quiet)
}

func (t *tracingTransport) amo(target int, f func() int64) int64 {
	var v int64
	t.span("amo", target, 8, func() { v = f() })
	return v
}

func (t *tracingTransport) Swap64(target int, off int64, v int64) int64 {
	return t.amo(target, func() int64 { return t.inner.Swap64(target, off, v) })
}

func (t *tracingTransport) CompareSwap64(target int, off int64, expected, desired int64) int64 {
	return t.amo(target, func() int64 { return t.inner.CompareSwap64(target, off, expected, desired) })
}

func (t *tracingTransport) FetchAdd64(target int, off int64, v int64) int64 {
	return t.amo(target, func() int64 { return t.inner.FetchAdd64(target, off, v) })
}

func (t *tracingTransport) FetchAnd64(target int, off int64, v int64) int64 {
	return t.amo(target, func() int64 { return t.inner.FetchAnd64(target, off, v) })
}

func (t *tracingTransport) FetchOr64(target int, off int64, v int64) int64 {
	return t.amo(target, func() int64 { return t.inner.FetchOr64(target, off, v) })
}

func (t *tracingTransport) FetchXor64(target int, off int64, v int64) int64 {
	return t.amo(target, func() int64 { return t.inner.FetchXor64(target, off, v) })
}

// Failed direct attempts fall back to a library call (which records its own
// event), so only successful direct accesses are recorded.
func (t *tracingTransport) DirectWrite(target int, off int64, data []byte) bool {
	start := t.inner.Clock().Now()
	ok := t.inner.DirectWrite(target, off, data)
	if ok {
		t.tr.record(TraceEvent{Image: t.inner.PE() + 1, Op: "direct-put", Target: target + 1,
			Bytes: len(data), Start: start, End: t.inner.Clock().Now()})
	}
	return ok
}

func (t *tracingTransport) DirectRead(target int, off int64, dst []byte) bool {
	start := t.inner.Clock().Now()
	ok := t.inner.DirectRead(target, off, dst)
	if ok {
		t.tr.record(TraceEvent{Image: t.inner.PE() + 1, Op: "direct-get", Target: target + 1,
			Bytes: len(dst), Start: start, End: t.inner.Clock().Now()})
	}
	return ok
}

func (t *tracingTransport) WaitLocal64(off int64, cmp pgas.Cmp, operand int64) {
	t.span("wait", -1, 0, func() { t.inner.WaitLocal64(off, cmp, operand) })
}

func (t *tracingTransport) Barrier() {
	t.span("barrier", -1, 0, t.inner.Barrier)
}

func (t *tracingTransport) Clock() *fabric.Clock     { return t.inner.Clock() }
func (t *tracingTransport) Machine() *fabric.Machine { return t.inner.Machine() }
func (t *tracingTransport) SameNode(a, b int) bool   { return t.inner.SameNode(a, b) }
func (t *tracingTransport) StridedMode() fabric.StridedMode {
	return t.inner.StridedMode()
}

// pgasPE forwards the local-memory escape hatch through the decorator.
func (t *tracingTransport) pgasPE() *pgas.PE { return t.inner.(localMem).pgasPE() }

// unwrap lets Image.SHMEM see through decorators.
func (t *tracingTransport) unwrap() Transport { return t.inner }
