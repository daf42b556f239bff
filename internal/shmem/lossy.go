package shmem

// The shmem side of lossy-fabric fault plans (fabric.LinkLoss). How a message
// crosses a link — natively, or through the ack/retransmit protocol — is
// decided below the library, by the delivery step of the substrate's issue
// core (pgas.World.Transmit), where sequence numbers, the receiver's duplicate
// window and the give-up marks live too; this file is what the library does
// once a link has been given up.
//
// Retry exhaustion escalates instead of hanging:
//
//	retry … retry → unreachable (sticky, per directed link)
//	    → stat-bearing completion points (QuietStat / QuietTargetStat /
//	      BarrierStat / WaitUntilStat) report STAT_FAILED_IMAGE for the
//	      destination;
//	    → legacy completion points (Quiet / QuietTarget / Barrier) and
//	      blocking gets error-terminate with a panic (poisoning the world);
//	    → the pgas deadlock report names given-up links as
//	      the backstop for programs that never reach a completion point.

import (
	"fmt"
	"slices"

	"cafshmem/internal/pgas"
)

// checkReachable is the legacy completion-point escalation: error-terminate
// when this PE has given up any destination. Stat-bearing forms call
// unreachFault instead.
func (pe *PE) checkReachable() {
	if !pe.world.pw.AnyUnreachable() {
		return // every Quiet comes through here: one atomic load
	}
	if gone := pe.world.pw.UnreachableFrom(pe.p.ID); len(gone) > 0 {
		panic(fmt.Sprintf("shmem: PE %d: destination PE(s) %v unreachable after retry exhaustion (lossy link): error termination — use the Stat completion forms to handle link failure", pe.p.ID, gone))
	}
}

// checkReachableTarget is checkReachable scoped to one destination
// (QuietTarget's escalation).
func (pe *PE) checkReachableTarget(target int) {
	if pe.world.pw.Unreachable(pe.p.ID, target) {
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
	failed = appendMissing(failed, pe.world.pw.UnreachableFrom(pe.p.ID))
	if len(failed) == 0 {
		return nil
	}
	return &pgas.ImageFault{Failed: failed}
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
