package pgas

// Link state of the lossy-fabric reliability layer (fabric/lossy.go), kept
// once for the whole job: per directed link the sender's sequence counter,
// the receiver's duplicate window, the forensic counters and the sticky
// give-up mark. Transmit is the one delivery step every put and get of every
// library crosses a link through, called from the issue core (issue.go) and
// nowhere else; a sender that exhausts its retries marks the link unreachable
// here, and waiters observe that through Unreachable the same way they observe
// PE departures.

import (
	"errors"
	"fmt"
	"slices"
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

// linkState is the state of one directed link.
type linkState struct {
	LinkReport
	// sent is the next sequence number the sender draws. nextSeq is the
	// receiver window: sequence numbers below it have been applied. A source
	// issues in order from one goroutine, so the window is a single
	// watermark — a landing seq below it is a duplicate and is suppressed.
	sent, nextSeq uint64
}

// linkKey identifies a directed link.
type linkKey struct{ src, dst int }

// delivery is the World's reliability bookkeeping, embedded in World.
type delivery struct {
	mu    sync.Mutex
	links map[linkKey]*linkState
	// givenUp lists the unreachable links in the order they were declared.
	givenUp []linkKey
	// nUnreach mirrors len(givenUp) so the hot-path Unreachable checks are
	// one atomic load when no link has failed.
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

// Transmit is the delivery step: how one message from src, wired out at
// wireNs with a loss-free one-way flight of latNs, crosses the link to dst.
// It reports whether the payload lands and when it is visible there, the
// sender's completion horizon, and whether the sender got an ack. reply says
// the sender waits for the target's answer (a get): on a reliable link that
// is a second flight, under the protocol the answer doubles as the ack.
//
// A link no loss rule of fp names is the identity case: the fabric delivers
// natively, so the payload lands at wireNs+latNs and the sender completes
// with it — the expression every library used before plans existed, which
// keeps nil-plan and loss-free virtual times bit-identical. A lossy link
// runs fp's ack/retransmit protocol on the link's next sequence number,
// accumulates its forensics and passes the receiver window, all under one
// lock. On !acked the caller lands the payload (if it lands) and only then
// publishes the give-up with MarkUnreachable, so a consumer whose predicate
// this message satisfies can never observe the dead link first.
//
// fp is the world's plan (Options.FaultPlan). Atomics do not come here, and
// the issue core keeps repair writes and forensic reads away: lock traffic and
// the recovery protocols that walk it stay natively reliable, which keeps lock
// repair orthogonal to loss.
func (w *World) Transmit(src, dst int, wireNs, latNs float64, reply bool) (lands bool, visibleAt, horizon float64, acked bool) {
	fp := w.plan
	if !fp.LossyPair(src, dst) {
		visibleAt, horizon = reliable(wireNs, latNs, reply)
		return true, visibleAt, horizon, true
	}
	w.dlv.mu.Lock()
	defer w.dlv.mu.Unlock()
	ls := w.linkLocked(src, dst)
	seq := ls.sent
	ls.sent++
	d := fp.Deliver(src, dst, seq, wireNs, latNs)
	ls.Msgs++
	ls.Attempts += uint64(d.Attempts)
	ls.Retries += uint64(d.Retries())
	ls.Drops += uint64(d.Drops)
	ls.AckDrops += uint64(d.AckDrops)
	ls.DupsSuppressed += uint64(d.Dups)
	if lands = d.Delivered; lands {
		if seq < ls.nextSeq {
			ls.DupsSuppressed++
			lands = false
		} else {
			ls.nextSeq = seq + 1
		}
	}
	if d.Acked {
		return lands, d.DeliveredNs, d.AckedNs, true
	}
	return lands, d.DeliveredNs, d.GaveUpNs, false
}

// reliable is Transmit's identity case, a link that delivers natively: the
// payload is visible one flight after it is wired out, and the sender completes
// with it — or, waiting for a reply, one more flight later.
func reliable(wireNs, latNs float64, reply bool) (visibleAt, horizon float64) {
	visibleAt = wireNs + latNs
	if reply {
		return visibleAt, wireNs + 2*latNs
	}
	return visibleAt, visibleAt
}

// MarkUnreachable records that src exhausted its retries toward dst. The
// mark is sticky and wakes every blocked waiter (same waiter-gated fan-out as
// depart) so a consumer blocked on data that can no longer arrive re-runs its
// fault checks and finds the dead link.
func (w *World) MarkUnreachable(src, dst int) {
	w.dlv.mu.Lock()
	ls := w.linkLocked(src, dst)
	first := !ls.Unreachable
	if first {
		ls.Unreachable = true
		w.dlv.givenUp = append(w.dlv.givenUp, linkKey{src, dst})
		w.dlv.nUnreach.Add(1)
	}
	w.dlv.mu.Unlock()
	if first {
		w.wakeWatchers(nil)
	}
}

// Unreachable reports whether src has declared dst unreachable. Safe to call
// from WaitWordStat onEvent hooks (it takes only the delivery lock, never a
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

// UnreachableFrom returns the destinations src has given up, in the order it
// declared them (a sender's own program order, so deterministic).
func (w *World) UnreachableFrom(src int) []int {
	if w.dlv.nUnreach.Load() == 0 {
		return nil
	}
	w.dlv.mu.Lock()
	defer w.dlv.mu.Unlock()
	var out []int
	for _, k := range w.dlv.givenUp {
		if k.src == src {
			out = append(out, k.dst)
		}
	}
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
	var out []int
	for _, k := range w.dlv.givenUp {
		if !slices.Contains(out, k.dst) {
			out = append(out, k.dst)
		}
	}
	w.dlv.mu.Unlock()
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

// --- the STAT ladder ---
//
// What a library does once a link is given up is decided here too, once for
// every library. Retry exhaustion escalates instead of hanging:
//
//	retry … retry → unreachable (sticky, per directed link)
//	    → stat-bearing completion points (Complete with stat,
//	      BarrierTolerantDo, a WaitWordStat hook that asks Unreachable)
//	      report STAT_FAILED_IMAGE for the destination: to the sender a dead
//	      link and a dead peer are one condition;
//	    → plain completion points (Complete without stat) and blocking gets
//	      error-terminate with a panic, poisoning the world;
//	    → the deadlock report names given-up links as the backstop for
//	      programs that never reach a completion point.

// Complete is every library's completion call (a quiet, a sync, a flush)
// toward target, or every destination when target is negative: it charges
// costNs and waits for the later completion of ops, the set whose failed
// destinations a stat form reports, and horizon, a blocking-put horizon (nil
// for none). Without stat a destination this PE has given up error-terminates
// here; with stat the fault is returned instead: ops's destinations observed
// failed, in first-issue order, then those given up.
func (p *PE) Complete(ops, horizon *fabric.NBIStreams, target int, costNs float64, stat bool) error {
	var failed []int
	if stat {
		ops.Targets(func(t int) {
			if (target < 0 || t == target) && p.observedFailed(t) {
				failed = append(failed, t)
			}
		})
	}
	done := p.drain(ops, target)
	if horizon != nil {
		done = max(done, p.drain(horizon, target))
	}
	p.Clock.Advance(costNs)
	p.Clock.MergeAtLeast(done)
	if p.world.AnyUnreachable() { // every quiet comes through here: one atomic load
		gone := p.world.UnreachableFrom(p.ID)
		if target >= 0 {
			gone = slices.DeleteFunc(gone, func(t int) bool { return t != target })
		}
		if !stat && len(gone) > 0 {
			who := fmt.Sprint("PEs ", gone)
			if len(gone) == 1 {
				who = fmt.Sprint("PE ", gone[0])
			}
			panic(fmt.Sprintf("pgas: PE %d: destination %s unreachable after retry exhaustion (lossy link): error termination — use the stat completion forms to handle link failure", p.ID, who))
		}
		failed = appendMissing(failed, gone)
	}
	if len(failed) == 0 {
		return nil
	}
	return &ImageFault{Failed: failed}
}

// drain is Drain, or DrainTarget when target is not negative.
func (p *PE) drain(set *fabric.NBIStreams, target int) float64 {
	if target < 0 {
		return p.Drain(set)
	}
	return p.DrainTarget(set, target)
}

// observedFailed reports whether this PE observes target as failed now. A
// planned kill is observed once the observer's own clock passes the kill
// time, so completion-side stat paths replay under any host schedule (nothing
// orders a drain after the victim's processing of its death). A death outside
// the plan falls back to the life-cycle state, observed through barriers.
func (p *PE) observedFailed(target int) bool {
	if at, ok := p.world.plan.KillTime(target); ok {
		return p.Clock.Now() >= at
	}
	return p.world.Failed(target)
}

// withGivenUp folds every given-up link's destination into err, a barrier's
// fault, as failed PEs: the barrier is the propagation point, so every
// participant reports the same set and all can abandon a phase together,
// which keeps degraded runs out of asymmetric collectives. Errors that are
// not faults pass through.
func (w *World) withGivenUp(err error) error {
	if !w.AnyUnreachable() {
		return err
	}
	var fe *ImageFault
	if err != nil && !errors.As(err, &fe) {
		return err
	}
	if fe == nil {
		fe = &ImageFault{}
	}
	return &ImageFault{Failed: appendMissing(slices.Clone(fe.Failed), w.UnreachableDsts()), Stopped: fe.Stopped}
}

// appendMissing appends to failed, in order, the PEs of more it lacks.
func appendMissing(failed, more []int) []int {
	for _, t := range more {
		if !slices.Contains(failed, t) {
			failed = append(failed, t)
		}
	}
	return failed
}
