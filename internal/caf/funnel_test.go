package caf

import (
	"fmt"
	"strings"
	"testing"
)

// The image's one descriptor on GASNet and MPI-3: a vectored or strided
// section goes to the library whole — and the next pencil of the same section
// reuses it — and a signal on a backend without put-with-signal, the funnel's
// one fallback, becomes quiet + put + quiet on it. Data, Stats, the tracer's
// kinds and the clock are those pinned when the funnel still split a section
// into one contiguous call per run or element, re-filling the descriptor
// while the operation was open. The clock is
// image 1's before the closing SyncAll, where it is a function of its own issue
// sequence alone: the barrier's release time follows image 2, whose two waits
// on MPI-3 merge the stamp of the latest write to the signal word — the first
// notification's or the second's, by host schedule, 420 ns apart.
func TestFunnelFallbacksReuseTheDescriptor(t *testing.T) {
	first := Section{{0, 4, 2}, {1, 3, 2}}  // 3 x 2 elements, dimension 1 strided
	second := Section{{1, 5, 2}, {0, 2, 2}} // the elements between them
	for _, tc := range []struct {
		name  string
		opts  Options
		algo  StridedAlgo
		kinds string
		stats Stats
		clock float64
	}{
		{"gasnet/naive", gasnetOpts(), StridedNaive,
			"barrier:0 barrier:0 quiet:0 barrier:0 putv:48 quiet:0 quiet:0 getv:48 put_signal:8 putv_nbi:48 put_signal_nbi:8 quiet:0 barrier:0",
			Stats{Puts: 7, Gets: 6, Quiets: 4, AsyncPuts: 7, Barriers: 2}, 22671.985975243668},
		{"gasnet/2dim", gasnetOpts(), Strided2Dim,
			"barrier:0 barrier:0 quiet:0 barrier:0 iput:24 iput:24 quiet:0 quiet:0 iget:24 iget:24 put_signal:8 iput_nbi:24 iput_nbi:24 put_signal_nbi:8 quiet:0 barrier:0",
			Stats{Puts: 1, StridedCalls: 6, Quiets: 4, AsyncPuts: 3, Barriers: 2}, 22671.985975243668},
		{"mpi3/naive", mpi3Opts(), StridedNaive,
			"barrier:0 barrier:0 quiet:0 barrier:0 putv:48 quiet:0 quiet:0 getv:48 quiet:0 put:8 quiet:0 putv:48 quiet:0 put:8 quiet:0 quiet:0 barrier:0",
			Stats{Puts: 14, Gets: 6, Quiets: 8, Barriers: 2}, 43314.77551560081},
		{"mpi3/2dim", mpi3Opts(), Strided2Dim,
			"barrier:0 barrier:0 quiet:0 barrier:0 iput:24 iput:24 quiet:0 quiet:0 iget:24 iget:24 quiet:0 put:8 quiet:0 iput:24 iput:24 quiet:0 put:8 quiet:0 quiet:0 barrier:0",
			Stats{Puts: 2, StridedCalls: 6, Quiets: 8, Barriers: 2}, 43314.77551560081},
	} {
		trc := NewTracer()
		o := tc.opts
		o.Strided, o.Tracer = tc.algo, trc
		var stats Stats
		var clock float64
		err := Run(2, o, func(img *Image) {
			c := Allocate[int64](img, 6, 4)
			sig := NewSignal(img)
			img.SyncAll()
			a, b := []int64{1, 2, 3, 4, 5, 6}, []int64{-1, -2, -3, -4, -5, -6}
			if img.ThisImage() == 1 {
				c.Put(2, first, a)
				if got := c.Get(2, first); fmt.Sprint(got) != fmt.Sprint(a) {
					panic(fmt.Sprintf("section read back as %v, want %v", got, a))
				}
				sig.Notify(2)
				c.PutSignalAsync(2, second, b, sig)
			} else {
				sig.Wait(1)
				sig.Wait(1)
			}
			if img.ThisImage() == 1 {
				clock = img.Clock().Now()
			}
			img.SyncAll()
			if img.ThisImage() == 2 {
				want := referenceApply([]int{6, 4}, first, a)
				for i, v := range referenceApply([]int{6, 4}, second, b) {
					want[i] += v
				}
				if got := c.Slice(); fmt.Sprint(got) != fmt.Sprint(want) {
					panic(fmt.Sprintf("target holds %v, want %v", got, want))
				}
			} else {
				stats = img.Stats
			}
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		var kinds []string
		for _, ev := range trc.Events() {
			if ev.Image == 1 {
				kinds = append(kinds, fmt.Sprintf("%s:%d", ev.Op, ev.Bytes))
			}
		}
		if got := strings.Join(kinds, " "); got != tc.kinds {
			t.Errorf("%s: image 1 traced\n%s, want\n%s", tc.name, got, tc.kinds)
		}
		if stats != tc.stats {
			t.Errorf("%s: image 1 counted %+v, want %+v", tc.name, stats, tc.stats)
		}
		if clock != tc.clock {
			t.Errorf("%s: image 1 ends at %v, want %v", tc.name, clock, tc.clock)
		}
	}
}
