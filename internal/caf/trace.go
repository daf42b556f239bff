package caf

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Tracer records every communication operation the runtime issues, with
// virtual-time start/end stamps — the observability layer for understanding
// where a CAF program's time goes (which is how the paper's own evaluation
// reasons: put counts, strided call counts, lock hand-offs). Install one via
// Options.Tracer; it is shared by all images and safe for concurrent use. It
// hooks the op funnel (funnel.go), so it sees every operation on every
// transport, in the form the funnel issued it: a signal on a transport without
// put-with-signal appears as the quiet, put, quiet it became.
type Tracer struct {
	mu     sync.Mutex
	events []TraceEvent
}

// TraceEvent is one recorded communication operation.
type TraceEvent struct {
	Image  int     // issuing image, 1-based
	Op     string  // see the kind list below
	Target int     // target image, 1-based (0 for collectives/local ops)
	Bytes  int     // payload size (0 where not applicable)
	Start  float64 // virtual ns at issue
	End    float64 // virtual ns at return
}

// Event kinds. RMA: put, get (contiguous), putv, getv (vectored), iput, iget
// (1-D strided); put_nbi, putv_nbi, iput_nbi (nonblocking); put_signal,
// put_signal_nbi (8-byte signal word); direct-put, direct-get (same-node
// load/store); get_stat (lock repair's read of a failed image). Others: amo,
// quiet, quiet_image (one destination), barrier, wait (local spin). A
// STAT-bearing form records the kind of its plain twin.

// NewTracer creates an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

func (t *Tracer) record(ev TraceEvent) {
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Events returns a snapshot of the recorded events, ordered by start time,
// then image; one image's events keep their issue order. The order does not
// depend on how the host scheduled the images.
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	out := append([]TraceEvent(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Image < out[j].Image
	})
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
