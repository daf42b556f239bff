package pgas

// Receiver-side delivery bookkeeping for the lossy-fabric reliability layer
// (fabric/lossy.go). The shmem layer runs the ack/retransmit protocol and
// routes every reliable payload through DeliverWrite, which enforces
// exactly-once application per (src, dst, sequence) — the receiver window of
// the protocol — and accumulates per-link forensic counters. When a sender
// exhausts its retries it marks the directed link unreachable here; waiters
// observe that through Unreachable the same way they observe PE departures.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cafshmem/internal/fabric"
)

// LinkReport is the forensic record of one directed link's reliability
// traffic: how many messages it carried, how hard the protocol had to work,
// and whether the sender eventually gave the link up.
type LinkReport struct {
	Src, Dst       int
	Msgs           uint64 // reliable messages carried
	Attempts       uint64 // packets sent including retransmissions
	Retries        uint64 // retransmissions (Attempts - Msgs when all complete)
	Drops          uint64 // data packets lost in the fabric
	AckDrops       uint64 // ack packets lost in the fabric
	DupsSuppressed uint64 // duplicates the receiver window discarded
	Unreachable    bool   // sender exhausted MaxRetries on some message
}

func (r LinkReport) String() string {
	s := fmt.Sprintf("%d->%d: msgs=%d attempts=%d retries=%d drops=%d ackdrops=%d dups=%d",
		r.Src, r.Dst, r.Msgs, r.Attempts, r.Retries, r.Drops, r.AckDrops, r.DupsSuppressed)
	if r.Unreachable {
		s += " UNREACHABLE"
	}
	return s
}

// linkState is the world-side state of one directed link.
type linkState struct {
	LinkReport
	// nextSeq is the receiver window: sequence numbers below it have been
	// applied. The sender applies payloads in sequence order (one goroutine
	// per source, issuing in order), so the window is a single watermark —
	// a seq below it is a duplicate and is suppressed.
	nextSeq uint64
}

// linkKey identifies a directed link.
type linkKey struct{ src, dst int }

// delivery is the World's reliability bookkeeping, embedded in World.
type delivery struct {
	mu    sync.Mutex
	links map[linkKey]*linkState
	// nUnreach mirrors the number of unreachable links so the hot-path
	// Unreachable check is one atomic load when no link has failed.
	nUnreach atomic.Int32
}

// linkLocked returns (creating if needed) the state of src->dst. Caller
// holds d.mu.
func (w *World) linkLocked(src, dst int) *linkState {
	if w.dlv.links == nil {
		w.dlv.links = make(map[linkKey]*linkState)
	}
	k := linkKey{src, dst}
	ls := w.dlv.links[k]
	if ls == nil {
		ls = &linkState{LinkReport: LinkReport{Src: src, Dst: dst}}
		w.dlv.links[k] = ls
	}
	return ls
}

// NoteDelivery accumulates one message's protocol forensics on src->dst.
func (w *World) NoteDelivery(src, dst int, d *fabric.Delivery) {
	w.dlv.mu.Lock()
	ls := w.linkLocked(src, dst)
	ls.Msgs++
	ls.Attempts += uint64(d.Attempts)
	ls.Retries += uint64(d.Retries())
	ls.Drops += uint64(d.Drops)
	ls.AckDrops += uint64(d.AckDrops)
	ls.DupsSuppressed += uint64(d.Dups)
	w.dlv.mu.Unlock()
}

// DeliverWrite applies a reliable message's payload exactly once: the first
// call for (src, dst, seq) runs apply and advances the receiver window, a
// later call with the same seq is a duplicate — suppressed, counted, and
// reported false. apply runs outside the delivery lock (it takes the target
// partition's own lock).
func (w *World) DeliverWrite(src, dst int, seq uint64, apply func()) bool {
	w.dlv.mu.Lock()
	ls := w.linkLocked(src, dst)
	dup := seq < ls.nextSeq
	if dup {
		ls.DupsSuppressed++
	} else {
		ls.nextSeq = seq + 1
	}
	w.dlv.mu.Unlock()
	if dup {
		return false
	}
	apply()
	return true
}

// MarkUnreachable records that src exhausted its retries toward dst. The
// mark is sticky and wakes every blocked waiter (same waiter-gated fan-out as
// depart) so a consumer blocked on data that can no longer arrive re-runs its
// fault checks and finds the dead link.
func (w *World) MarkUnreachable(src, dst int) {
	w.dlv.mu.Lock()
	ls := w.linkLocked(src, dst)
	first := !ls.Unreachable
	ls.Unreachable = true
	w.dlv.mu.Unlock()
	if !first {
		return
	}
	w.dlv.nUnreach.Add(1)
	w.wakeWatchers(nil)
}

// Unreachable reports whether src has declared dst unreachable. Safe to call
// from WaitUntilStat onEvent hooks (it takes only the delivery lock, never a
// partition lock); free when no link has failed.
func (w *World) Unreachable(src, dst int) bool {
	if w.dlv.nUnreach.Load() == 0 {
		return false
	}
	w.dlv.mu.Lock()
	defer w.dlv.mu.Unlock()
	ls := w.dlv.links[linkKey{src, dst}]
	return ls != nil && ls.Unreachable
}

// AnyUnreachable reports whether any directed link has been given up — one
// atomic load.
func (w *World) AnyUnreachable() bool { return w.dlv.nUnreach.Load() > 0 }

// LinkReports returns the forensic counters of every link that carried
// reliable traffic, ordered by (src, dst) for deterministic output.
func (w *World) LinkReports() []LinkReport {
	w.dlv.mu.Lock()
	out := make([]LinkReport, 0, len(w.dlv.links))
	for _, ls := range w.dlv.links {
		out = append(out, ls.LinkReport)
	}
	w.dlv.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// UnreachableDsts returns the sorted distinct destinations of given-up
// links. Barrier-level fault reports fold these in for every participant —
// a destination some sender can no longer reach is failed from the job's
// point of view, and reporting the same degraded membership to all images
// (including the destination itself) lets them abandon a phase together
// instead of stranding the unaware ones in a collective.
func (w *World) UnreachableDsts() []int {
	if w.dlv.nUnreach.Load() == 0 {
		return nil
	}
	w.dlv.mu.Lock()
	seen := make(map[int]bool)
	for k, ls := range w.dlv.links {
		if ls.Unreachable {
			seen[k.dst] = true
		}
	}
	w.dlv.mu.Unlock()
	out := make([]int, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// unreachableLinks formats the given-up links for the deadlock report.
func (w *World) unreachableLinks() []string {
	if w.dlv.nUnreach.Load() == 0 {
		return nil
	}
	var out []string
	for _, r := range w.LinkReports() {
		if r.Unreachable {
			out = append(out, fmt.Sprintf("%d->%d", r.Src, r.Dst))
		}
	}
	return out
}
