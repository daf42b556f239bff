package shmem

// The shmem-side reliability layer for lossy-fabric fault plans
// (fabric.LinkLoss). A destination named by a loss rule no longer gets the
// fabric's native reliable delivery: every message to it runs the
// ack/retransmit protocol of fabric.FaultPlan.Deliver — per-destination
// sequence numbers, capped exponential backoff, receiver-side duplicate
// suppression (pgas.DeliverWrite) — and the op's completion horizon becomes
// the protocol's ack time instead of wire-out + latency.
//
// Retry exhaustion escalates instead of hanging:
//
//	retry … retry → unreachable (sticky, per destination)
//	    → stat-bearing completion points (QuietStat / QuietTargetStat /
//	      BarrierStat / WaitUntilStat) report STAT_FAILED_IMAGE for the
//	      destination;
//	    → legacy completion points (Quiet / QuietTarget / Barrier) and
//	      blocking gets error-terminate with a panic (poisoning the world);
//	    → the pgas deadlock report names given-up links as
//	      the backstop for programs that never reach a completion point.
//
// Unlisted destinations — and every destination of a plan without Losses —
// take the pre-existing code path untouched, which is what keeps loss-free
// virtual times bit-identical to a nil plan.

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// lossy reports whether the reliability protocol governs messages from this
// PE to target. One slice scan on plans with loss rules; one nil check
// otherwise.
func (pe *PE) lossy(target int) bool {
	return pe.world.fplan.LossyPair(pe.p.ID, target)
}

// nextMsgSeq draws the next reliable-message sequence number toward target.
func (pe *PE) nextMsgSeq(target int) uint64 {
	if pe.seqTo == nil {
		pe.seqTo = make([]uint64, pe.NumPEs())
	}
	s := pe.seqTo[target]
	pe.seqTo[target] = s + 1
	return s
}

// noteUnreach stickily records retry exhaustion toward target and publishes
// it to the substrate (waking blocked consumers so their fault checks run).
func (pe *PE) noteUnreach(target int) {
	for _, t := range pe.unreach {
		if t == target {
			return
		}
	}
	pe.unreach = append(pe.unreach, target)
	pe.world.pw.MarkUnreachable(pe.p.ID, target)
}

// isUnreach reports whether this PE has given up the link to target.
func (pe *PE) isUnreach(target int) bool {
	for _, t := range pe.unreach {
		if t == target {
			return true
		}
	}
	return false
}

// reliableSend runs the ack/retransmit protocol for one message toward
// target, wired out at sendNs with one-way flight time latencyNs. apply, if
// non-nil, lands the payload write(s) with the delivery timestamp of the
// first successful attempt; it is routed through the receiver's duplicate
// window (exactly-once) and runs synchronously. The returned horizon is the
// sender-side completion time — the ack arrival, or the final timeout expiry
// when the protocol exhausted its retries (acked=false), in which case the
// destination has been declared unreachable.
//
// Order matters for replay determinism: the payload lands before the
// unreachable mark is published, so a consumer whose predicate is satisfied
// by this message can never instead observe the dead link first.
func (pe *PE) reliableSend(target int, sendNs, latencyNs float64, apply func(visibleAt float64)) (horizon float64, acked bool) {
	fp := pe.world.fplan
	pw := pe.world.pw
	seq := pe.nextMsgSeq(target)
	ds := fp.Deliver(pe.p.ID, target, seq, sendNs, latencyNs)
	pw.NoteDelivery(pe.p.ID, target, &ds)
	if ds.Delivered && apply != nil {
		pw.DeliverWrite(pe.p.ID, target, seq, func() { apply(ds.DeliveredNs) })
	}
	if ds.Acked {
		return ds.AckedNs, true
	}
	pe.noteUnreach(target)
	return ds.GaveUpNs, false
}

// reliableGet runs the protocol for a blocking round trip (the get family)
// whose request was wired out at sendNs: the response doubles as the ack, so
// completion is the ack arrival, merged into the clock on top of the native
// cost the caller already charged. Gets have no deferred completion point,
// so retry exhaustion error-terminates at the op itself (the legacy
// escalation; fault-aware code paths read through signals or Stat forms).
func (pe *PE) reliableGet(target int, sendNs, latencyNs float64) {
	done, acked := pe.reliableSend(target, sendNs, latencyNs, nil)
	pe.p.Clock.MergeAtLeast(done)
	if !acked {
		panic(fmt.Sprintf("shmem: PE %d: get from unreachable PE %d (retry exhaustion on lossy link): error termination", pe.p.ID, target))
	}
}

// checkReachable is the legacy completion-point escalation: error-terminate
// when this PE has given up any destination. Stat-bearing forms call
// unreachFault instead.
func (pe *PE) checkReachable() {
	if len(pe.unreach) > 0 {
		panic(fmt.Sprintf("shmem: PE %d: destination PE(s) %v unreachable after retry exhaustion (lossy link): error termination — use the Stat completion forms to handle link failure", pe.p.ID, pe.unreach))
	}
}

// checkReachableTarget is checkReachable scoped to one destination
// (QuietTarget's escalation).
func (pe *PE) checkReachableTarget(target int) {
	if pe.isUnreach(target) {
		panic(fmt.Sprintf("shmem: PE %d: destination PE %d unreachable after retry exhaustion (lossy link): error termination — use QuietTargetStat to handle link failure", pe.p.ID, target))
	}
}

// unreachFault folds this PE's unreachable destinations into a failed-PE
// list (first-declaration order, deduplicated against failed) and returns
// the combined ImageFault — nil when there is nothing to report. An
// unreachable destination is indistinguishable from a failed one to the
// sender, which is exactly how the Fortran 2018 mapping wants it: both
// surface as STAT_FAILED_IMAGE.
func (pe *PE) unreachFault(failed []int) error {
	for _, t := range pe.unreach {
		dup := false
		for _, f := range failed {
			if f == t {
				dup = true
				break
			}
		}
		if !dup {
			failed = append(failed, t)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	return &pgas.ImageFault{Failed: failed}
}
