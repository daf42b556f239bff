package pgasbench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The figures' worlds are independent: each series, or each (series, image
// count) point, builds its own worlds from its own options and shares no
// mutable state with another — the read-only zero payload and the page pool
// aside — and every world's virtual time is deterministic. So the builders
// run them concurrently through parallel, the one place in this package that
// starts goroutines, and a figure is the same whatever the schedule.

// parallel runs job(0), …, job(n-1), at most runtime.GOMAXPROCS(0) at a time,
// and returns their results in job order. A job that panics does not stop the
// others: once every job has returned, the panic of the lowest-numbered one
// that panicked is raised again on the caller's goroutine as a *jobPanic,
// which carries the stack the job failed on. The benchmark's paper_figures
// workload recovers it as a failed repetition; anywhere else it crashes the
// process as a panic of the caller would, and the message shows that stack.
func parallel[T any](n int, job func(i int) T) []T {
	panics := make([]*jobPanic, n)
	out := make([]T, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := min(n, runtime.GOMAXPROCS(0))
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				out[i], panics[i] = try(i, job)
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}

// try runs job(i), recovering a panic of it with the stack it was raised on.
func try[T any](i int, job func(i int) T) (r T, p *jobPanic) {
	defer func() {
		if v := recover(); v != nil {
			p = &jobPanic{Value: v, Stack: debug.Stack()}
		}
	}()
	return job(i), nil
}

// jobPanic is the panic of one of parallel's jobs, raised again on the
// caller: Value is what the job panicked with, Stack where it did.
type jobPanic struct {
	Value any
	Stack []byte
}

func (p *jobPanic) Error() string { return fmt.Sprintf("%v\n\n[job goroutine]\n%s", p.Value, p.Stack) }

// plannedPanel is a panel whose series are still to be run, one job each.
type plannedPanel struct {
	Panel
	jobs []func() (Series, error)
}

// add plans one more series of p.
func (p *plannedPanel) add(job func() (Series, error)) { p.jobs = append(p.jobs, job) }

// buildPanels runs the series of every planned panel together and returns the
// panels with their series in plan order. A series that fails panics.
func buildPanels(planned ...plannedPanel) []Panel {
	var jobs []func() (Series, error)
	for _, p := range planned {
		jobs = append(jobs, p.jobs...)
	}
	series := parallel(len(jobs), func(i int) Series {
		s, err := jobs[i]()
		if err != nil {
			panic(err)
		}
		return s
	})
	out := make([]Panel, len(planned))
	for i, p := range planned {
		out[i] = p.Panel
		out[i].Series, series = series[:len(p.jobs):len(p.jobs)], series[len(p.jobs):]
	}
	return out
}

// sweep returns one series per label over xs, running every (series, x) point
// as its own job: point(s, x) is the value of series s at x. A point that
// fails panics.
func sweep(labels []string, xs []int, point func(s, x int) (float64, error)) []Series {
	values := parallel(len(labels)*len(xs), func(i int) float64 {
		v, err := point(i/len(xs), xs[i%len(xs)])
		if err != nil {
			panic(err)
		}
		return v
	})
	out := make([]Series, len(labels))
	for s, l := range labels {
		out[s] = Series{Label: l}
		for k, x := range xs {
			out[s].Rows = append(out[s].Rows, Row{X: float64(x), Value: values[s*len(xs)+k]})
		}
	}
	return out
}
