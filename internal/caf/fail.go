package caf

import (
	"errors"
	"fmt"

	"cafshmem/internal/pgas"
)

// Fortran 2018 failed-image semantics (a beyond-paper extension of the CAF
// runtime). The paper's UHCAF maps Fortran 2008; Fortran 2018 added FAIL
// IMAGE, STAT_FAILED_IMAGE/STAT_STOPPED_IMAGE, failed_images() and
// image_status(), so that programs can observe image failure as a status
// instead of hanging. This file provides that surface, always on: the pgas
// substrate freezes a failed image's partition and its clock and decides what
// a failed or unreachable target means at each completion point, every
// library exposes STAT-bearing primitives over it, the runtime here
// translates them into Fortran's constants, and the lock (lock.go) repairs
// its queue. In a fault-free world every STAT form costs exactly its plain
// sibling.
//
// Faults are injected deterministically: an image dies when its own virtual
// clock first reaches its scheduled kill time at a runtime operation boundary
// (co-indexed access, synchronisation, lock operation) — the virtual-time
// analogue of a process crashing inside its program. Because the schedule and
// the simulation are both deterministic, a chaos run replays identically from
// its fabric.FaultPlan seed.

// Stat is a Fortran 2018 STAT= value. The non-zero constants follow the
// ISO_FORTRAN_ENV convention of distinct positive codes.
type Stat int

const (
	// StatOK is the success status (STAT= left at zero).
	StatOK Stat = 0
	// StatStoppedImage reports involvement of an image that initiated normal
	// termination (ISO_FORTRAN_ENV's STAT_STOPPED_IMAGE).
	StatStoppedImage Stat = 6000
	// StatFailedImage reports involvement of a failed image
	// (ISO_FORTRAN_ENV's STAT_FAILED_IMAGE).
	StatFailedImage Stat = 6001
)

func (s Stat) String() string {
	switch s {
	case StatOK:
		return "STAT_OK"
	case StatStoppedImage:
		return "STAT_STOPPED_IMAGE"
	case StatFailedImage:
		return "STAT_FAILED_IMAGE"
	default:
		return fmt.Sprintf("STAT(%d)", int(s))
	}
}

// statFromErr translates a substrate fault report into the Fortran status.
// STAT_FAILED_IMAGE takes precedence over STAT_STOPPED_IMAGE, as in the
// standard's ordering of conditions. Non-fault errors (a poisoned world) are
// programming or harness errors and propagate as panics.
func statFromErr(err error) Stat {
	if err == nil {
		return StatOK
	}
	var fe *pgas.ImageFault
	if errors.As(err, &fe) {
		if len(fe.Failed) > 0 {
			return StatFailedImage
		}
		return StatStoppedImage
	}
	panic(err)
}

// FailImage executes "fail image": the calling image stops participating
// without initiating normal termination, exactly as if its process crashed.
// Its partition freezes (remaining forensically readable), its clock stops,
// and every blocked image is woken so waits on it surface as STATs or
// deadlock reports instead of hangs. Never returns.
func (img *Image) FailImage() {
	img.dead = true
	img.local.Fail()
	panic("unreachable") // Fail panics with the departure sentinel
}

// checkAlive keeps a failed image from communicating. FAIL IMAGE unwinds the
// image's goroutine with a panic, so the program's deferred calls still run
// on it — typically an unlock. A crashed process executes nothing: letting
// the unlock through had a dead holder detach, hand over or wait on a lock
// queue that the survivors' repair walk was reading as frozen (and a dead
// image that blocks there keeps Run from ever returning). Re-raising the
// failure instead continues the unwind; the departure itself is idempotent.
func (img *Image) checkAlive() {
	if img.dead {
		img.local.Fail()
	}
}

// FailedImages returns the indices (1-based) of images known to have failed —
// the failed_images() intrinsic.
func (img *Image) FailedImages() []int {
	pes := img.local.World().FailedPEs()
	out := make([]int, len(pes))
	for i, p := range pes {
		out[i] = p + 1
	}
	return out
}

// ImageStatus reports the state of image j (1-based) — the image_status()
// intrinsic: StatOK while executing, StatStoppedImage after normal
// completion, StatFailedImage after failure.
func (img *Image) ImageStatus(j int) Stat {
	img.checkImage(j)
	w := img.local.World()
	switch {
	case w.Failed(j - 1):
		return StatFailedImage
	case w.Stopped(j - 1):
		return StatStoppedImage
	default:
		return StatOK
	}
}

// LinkReport is the per-directed-link reliability forensics record of the
// lossy-fabric reliability layer (re-exported from pgas): message, attempt,
// drop and duplicate-suppression counters, plus whether the sender declared
// the link unreachable after retry exhaustion.
type LinkReport = pgas.LinkReport

// LinkReports returns the world's per-link reliability forensics, sorted by
// (src, dst) — empty on a loss-free fabric. Counters are world-global (every
// image sees the same list), so benchmarks conventionally have image 1
// capture them after the final synchronisation.
func (img *Image) LinkReports() []LinkReport {
	return img.local.World().LinkReports()
}

// PageStats is a world's partition-memory record (re-exported from pgas):
// page records, the pages of them with bytes and of those the ones whose
// bytes are a 4 KiB window, packed timestamp records and dense timestamp
// blocks materialised, how many records, byte buffers and packed records were
// recycled from earlier jobs, how much of it all was new memory, bytes
// cleared on hand-out, and page tables taken new and recycled.
type PageStats = pgas.PageStats

// PageStats returns the job's partition-memory counters so far. Like
// LinkReports they are world-global, so benchmarks have image 1 capture them
// after the final synchronisation.
func (img *Image) PageStats() PageStats {
	return img.local.World().PageStats()
}

// Metrics is a world's synchronisation record on the host (re-exported from
// pgas): goroutine sleeps, barrier generations and runners started.
type Metrics = pgas.Metrics

// Metrics returns the job's synchronisation counters so far; world-global
// like PageStats, and captured with it.
func (img *Image) Metrics() Metrics {
	return img.local.World().Metrics()
}

// pollFault is the fault-injection hook: runtime entry points call it so a
// scheduled kill fires at the first operation boundary at or after its
// virtual time. One predictable branch when no kill is scheduled (always the
// case without a FaultPlan), zero virtual-time cost either way.
func (img *Image) pollFault() {
	img.checkAlive()
	if img.hasKill && img.Clock().Now() >= img.killAt {
		img.FailImage()
	}
}

// SyncAllStat executes "sync all (stat=...)": like SyncAll, but when images
// have failed or stopped the rendezvous completes among the survivors and
// the condition is reported as the returned Stat instead of an error
// termination. Once any image has failed, every subsequent sync returns
// StatFailedImage (the condition is sticky, as in the standard).
func (img *Image) SyncAllStat() Stat {
	img.pollFault()
	_ = img.complete(-1, true) // the rendezvous reports the fault
	img.Stats.Barriers++
	return statFromErr(img.rendezvous(true))
}

// linkDown reports whether either direction of the link with image j has been
// given up after retry exhaustion: an alive image behind a dead link — which
// STAT= can only describe as failed.
func (img *Image) linkDown(j int) bool {
	pw := img.local.World()
	me := img.ThisImage()
	return pw.Unreachable(me-1, j-1) || pw.Unreachable(j-1, me-1)
}

// SyncImagesStat executes "sync images(list, stat=...)": pairwise
// synchronisation that reports failed or stopped partners instead of
// hanging. Signals are still exchanged with every live listed partner, so
// survivors stay pairwise synchronised; partners that are dead at entry or
// fail while awaited contribute their status and their pending signal count
// is left unconsumed.
func (img *Image) SyncImagesStat(list ...int) Stat {
	img.pollFault()
	_ = img.complete(-1, true) // a link given up is reported below, not escalated
	me := img.ThisImage()
	stat := StatOK
	var short [8]int // a halo's or a tree's partners: no allocation
	live := short[:0]
	if len(list) > len(short) {
		live = make([]int, 0, len(list))
	}
	for _, j := range list {
		img.checkImage(j)
		if j == me {
			continue
		}
		if s := img.ImageStatus(j); s != StatOK {
			stat = worseStat(stat, s)
			continue
		}
		if img.linkDown(j) {
			stat = worseStat(stat, StatFailedImage)
			continue
		}
		live = append(live, j)
		img.signalImage(j)
	}
	for _, j := range live {
		stat = worseStat(stat, img.awaitImageStat(j))
	}
	return stat
}

// worseStat combines two statuses, preferring the more severe
// (failed > stopped > ok), matching the standard's precedence.
func worseStat(a, b Stat) Stat {
	if a == StatFailedImage || b == StatFailedImage {
		return StatFailedImage
	}
	if a == StatStoppedImage || b == StatStoppedImage {
		return StatStoppedImage
	}
	return StatOK
}

// errPeerDeparted interrupts a pairwise wait when the awaited image departs.
var errPeerDeparted = errors.New("caf: awaited image departed")

// errLinkDown interrupts a pairwise wait when the awaited image is alive but
// declared its link to this image dead after retry exhaustion (lossy fabric).
var errLinkDown = errors.New("caf: link from awaited image exhausted retries")

// awaitImageStat is awaitImage with fault awareness: if image j fails or
// stops before its signal arrives, the wait aborts with j's status and the
// expected-signal bookkeeping is not advanced (the standard's "sync not
// performed" outcome). A signal that arrived before the partner died still
// counts — death after signalling does not unsynchronise the pair.
func (img *Image) awaitImageStat(j int) Stat {
	r := img.syncs.rec(j)
	want := r.seen + 1
	pw := img.local.World()
	err := img.waitStat(
		img.syncOff+int64(j-1)*8, pgas.CmpGE, want,
		func() error {
			if !pw.Alive(j - 1) {
				return errPeerDeparted
			}
			return nil
		})
	if err != nil {
		if errors.Is(err, errPeerDeparted) {
			return img.ImageStatus(j)
		}
		panic(err) // poisoned world (deadlock or unrelated PE panic)
	}
	r.seen = want
	return StatOK
}
