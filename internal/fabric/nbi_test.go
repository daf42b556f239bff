package fabric

import (
	"testing"
)

// NBIQueue is the reference model the completion streams are checked
// against: one PE's in-flight nonblocking operations on a single completion
// horizon, whatever their destination. The zero value is an empty queue.
type NBIQueue struct {
	// nicFreeAt is when the injection pipe next idles: ops serialise on it,
	// which preserves the per-node injection-bandwidth sharing that the gap
	// term models — issuing n nonblocking puts back to back still streams
	// their bytes one after another.
	nicFreeAt float64
	// doneAt is the latest completion timestamp of any outstanding op; the
	// value Quiet merges into the clock.
	doneAt float64
	// count is the number of ops issued since the last Drain.
	count int
}

// Issue records a nonblocking op posted at virtual time now whose payload
// occupies the NIC for transferNs and becomes remotely visible latencyNs
// after leaving the pipe. It returns the op's completion timestamp (the
// remote-visibility time of its data).
func (q *NBIQueue) Issue(now, transferNs, latencyNs float64) float64 {
	start := now
	if q.nicFreeAt > start {
		start = q.nicFreeAt
	}
	q.nicFreeAt = start + transferNs
	done := q.nicFreeAt + latencyNs
	if done > q.doneAt {
		q.doneAt = done
	}
	q.count++
	return done
}

// Drain empties the queue and returns the latest outstanding completion
// timestamp (0 when nothing was outstanding) — Quiet's wait target.
func (q *NBIQueue) Drain() float64 {
	d := q.doneAt
	q.nicFreeAt, q.doneAt, q.count = 0, 0, 0
	return d
}

// Outstanding returns the number of ops issued since the last Drain.
func (q *NBIQueue) Outstanding() int { return q.count }

func testProfiles(t *testing.T) []*CostProfile {
	t.Helper()
	var out []*CostProfile
	for _, m := range []*Machine{Stampede(), CrayXC30(), Titan()} {
		for _, name := range m.ProfileNames() {
			p, err := m.Profile(name)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, p)
		}
	}
	return out
}

// The nonblocking decomposition must be exact: splitting a blocking op into
// issue + transfer (+ delivery) reshuffles when costs are paid, never how
// much is paid in total.
func TestNBIDecompositionMatchesBlocking(t *testing.T) {
	for _, p := range testProfiles(t) {
		for _, n := range []int{1, 8, 64, 4096, 1 << 20} {
			for _, intra := range []bool{false, true} {
				for _, pairs := range []int{1, 2, 7} {
					blocking := p.PutInjectNs(n, intra, pairs)
					split := p.NBIInjectNs() + p.NBITransferNs(n, intra, pairs)
					if !closeEnough(blocking, split) {
						t.Errorf("%s: PutInjectNs(%d,%v,%d)=%g but NBI split=%g", p.Name, n, intra, pairs, blocking, split)
					}
				}
			}
		}
		for _, nelems := range []int{1, 16, 333} {
			for _, es := range []int{4, 8} {
				blocking := p.StridedInjectNs(nelems, es, false, 1)
				split := p.StridedNBIInjectNs(nelems) + p.StridedNBITransferNs(nelems, es, false, 1)
				if !closeEnough(blocking, split) {
					t.Errorf("%s: StridedInjectNs(%d,%d)=%g but NBI split=%g", p.Name, nelems, es, blocking, split)
				}
			}
		}
	}
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if b > scale {
		scale = b
	}
	return d <= 1e-9*scale+1e-12
}

// Back-to-back nonblocking ops serialise on the injection pipe: the second
// op's transfer starts when the first leaves the NIC, not at its own issue
// time, so bandwidth is never double-counted.
func TestNBIQueueSerialisesOnNIC(t *testing.T) {
	var q NBIQueue
	d1 := q.Issue(100, 50, 10)
	if d1 != 160 {
		t.Fatalf("first op completion = %g, want 160", d1)
	}
	// Issued at t=110, but the NIC is busy until 150.
	d2 := q.Issue(110, 30, 10)
	if d2 != 190 {
		t.Fatalf("second op completion = %g, want 190 (NIC busy until 150)", d2)
	}
	if q.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", q.Outstanding())
	}
	if got := q.Drain(); got != 190 {
		t.Fatalf("drain = %g, want 190", got)
	}
	if q.Outstanding() != 0 || q.Drain() != 0 {
		t.Fatal("queue not empty after drain")
	}
}

// An idle NIC starts transfers immediately; completions track the max, not
// the last issue.
func TestNBIQueueMaxCompletion(t *testing.T) {
	var q NBIQueue
	big := q.Issue(0, 1000, 5)   // completes at 1005
	small := q.Issue(2000, 1, 5) // NIC idle again; completes at 2006
	if big != 1005 || small != 2006 {
		t.Fatalf("completions = %g, %g; want 1005, 2006", big, small)
	}
	if got := q.Drain(); got != 2006 {
		t.Fatalf("drain = %g, want max completion 2006", got)
	}
}
