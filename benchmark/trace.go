package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"time"
)

// span is one timed interval recorded from the benchmark's own files, around
// a call into a layer. parent indexes the span that caused it (-1 for a
// root); id is shared by every span of one repetition.
type span struct {
	name       string
	start, end int64 // wall-clock ns since the Unix epoch
	parent     int32
	id         int32
}

// tracer keeps spans in memory until the benchmark ends. It is not locked:
// within a repetition only image 1 records, and the harness goroutine that
// opened the enclosing span is blocked in Run until every image has returned.
// A nil *tracer records nothing, which is how untraced repetitions run.
type tracer struct {
	spans []span
	id    int32
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<12)} }

// nextID starts a new repetition: spans recorded from here on share its id.
func (t *tracer) nextID() {
	if t != nil {
		t.id++
	}
}

// begin opens a span under parent and returns its index for end.
func (t *tracer) begin(parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Now().UnixNano(), parent: parent, id: t.id})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].end = time.Now().UnixNano()
	}
}

// selfTimes returns, per span name, the summed self time: a span's duration
// minus the part of it its direct children cover.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.name] += float64(s.end - s.start - child[i])
	}
	return out
}

// writeEvents appends the spans as Chrome trace-event objects, one per line
// with a trailing comma; the parent process wraps all parts into one array.
func (t *tracer) writeEvents(w io.Writer, pid int) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	for _, s := range t.spans {
		parent := ""
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		if _, err := fmt.Fprintf(bw, "{\"name\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":1,\"args\":{\"id\":%d,\"parent\":%q}},\n",
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, pid, s.id, parent); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeTraceFile assembles the final Chrome trace: the parent's own spans
// followed by each child's part file (which is removed once copied).
func writeTraceFile(path string, own *tracer, parts []string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err = io.WriteString(f, "[\n"); err != nil {
		return err
	}
	if err = own.writeEvents(f, 0); err != nil {
		return err
	}
	for _, p := range parts {
		in, err := os.Open(p)
		if err != nil {
			return err
		}
		_, err = io.Copy(f, in)
		in.Close()
		if err != nil {
			return err
		}
		if err = os.Remove(p); err != nil {
			return err
		}
	}
	// A metadata event closes the array without a dangling comma.
	_, err = io.WriteString(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"cafshmem benchmark\"}}\n]\n")
	return err
}
