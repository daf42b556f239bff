package caf

import (
	"errors"

	"cafshmem/internal/pgas"
)

// Signal implements point-to-point signal-pair synchronisation over OpenSHMEM
// 1.5 put-with-signal: a producer notifies a consumer that data it sent is
// complete, and the consumer waits on its local flag — no barrier, no
// collective, no remote polling. It is the runtime surface for the
// notify/wait ("event post with data") style halo exchanges use to drop the
// per-iteration SYNC ALL: each image waits only for the neighbours whose data
// it actually needs.
//
// A Signal coarray holds NumImages inbound 8-byte slots per image, one per
// possible sender, each carrying a monotone sequence number. Notify(j) bumps
// the sequence this image sends to j; Wait(j) consumes the next sequence from
// j. Sequences make repeated notify/wait pairs match up one-to-one even when
// the producer runs far ahead of the consumer, exactly like SyncImages'
// counters — but one-directional and barrier-free.
type Signal struct {
	img  *Image
	off  int64   // base of the NumImages inbound slots
	sent []int64 // last sequence sent toward each partner
	seen []int64 // last sequence consumed from each partner
}

// NewSignal collectively creates a signal coarray, zero-initialised.
func NewSignal(img *Image) *Signal {
	n := int64(img.NumImages())
	off := img.malloc(n*8, true) // no deallocator exists; not a leak
	img.local.ZeroLocal(off, n*8)
	img.barrier()
	return &Signal{img: img, off: off, sent: make([]int64, n), seen: make([]int64, n)}
}

// slotOff is the flag slot a given sender (1-based) writes — in the
// receiver's partition, but offsets are symmetric.
func (s *Signal) slotOff(sender int) int64 { return s.off + int64(sender-1)*8 }

// Notify signals image j (1-based): one fused put-with-signal injection, no
// quiet. Because the substrate applies writes in issue order per destination,
// a consumer that observes the signal also observes this image's prior
// *blocking* puts to j. Data sent with PutAsync is NOT ordered by a bare
// Notify — use Coarray.PutSignalAsync so the flag rides the same completion
// stream as the data, or SyncMemoryImage(j) first. On transports without the
// fused path (MPI-3 RMA) everything is completed first and the flag posted as
// an ordinary put — always correct, just stronger.
func (s *Signal) Notify(j int) {
	s.img.pollFault()
	s.img.checkImage(j)
	s.post(j, false)
}

// post sends the next sequence number to image j's slot for this image.
func (s *Signal) post(j int, nbi bool) {
	img := s.img
	s.sent[j-1]++
	op := img.xfer(false, j-1, 0, nil)
	op.Shape, op.SigOff, op.SigVal, op.nbi = pgas.Signal, s.slotOff(img.ThisImage()), uint64(s.sent[j-1]), nbi
	img.issue(op)
}

// Wait blocks until the next Notify from image j (1-based) has arrived and
// consumes it. On return, the data the notify advertises is visible.
func (s *Signal) Wait(j int) {
	img := s.img
	img.pollFault()
	img.checkImage(j)
	want := s.seen[j-1] + 1
	s.seen[j-1] = want
	img.wait(s.slotOff(j), pgas.CmpGE, want)
}

// WaitStat is Wait with Fortran 2018 failed-image semantics: if image j fails
// (or stopped) before its notify arrives, the wait returns j's status instead
// of hanging. A notify that already arrived wins even if j died afterwards —
// the data it advertises is delivered. The sequence is consumed only on
// success, so a recovering consumer can re-wait after repair.
//
// A lossy-fabric link that j gave up after retry exhaustion counts too: j is
// alive but its messages to this image can no longer arrive, so the wait
// reports StatFailedImage — the sender is failed *from this image's
// perspective*, which is the only perspective STAT= has. (ImageStatus(j)
// would say StatOK: the image is fine, the link is not.)
func (s *Signal) WaitStat(j int) Stat {
	img := s.img
	img.pollFault()
	img.checkImage(j)
	want := s.seen[j-1] + 1
	me := img.ThisImage()
	pw := img.local.World()
	err := img.waitStat(
		s.slotOff(j), pgas.CmpGE, want,
		func() error {
			if !pw.Alive(j - 1) {
				return errPeerDeparted
			}
			if pw.Unreachable(j-1, me-1) {
				return errLinkDown
			}
			return nil
		})
	if err != nil {
		if errors.Is(err, errPeerDeparted) {
			return img.ImageStatus(j)
		}
		if errors.Is(err, errLinkDown) {
			return StatFailedImage
		}
		panic(err) // poisoned world (deadlock or unrelated PE panic)
	}
	s.seen[j-1] = want
	return StatOK
}

// Pending reports how many notifies from image j have arrived but not been
// consumed (observability; the signal analogue of event_query).
func (s *Signal) Pending(j int) int64 {
	s.img.checkImage(j)
	return int64(s.img.localWord(s.slotOff(j))) - s.seen[j-1]
}

// PutSignalAsync writes vals into section sec of the coarray on image j and
// notifies sig in the same breath: the data travels as nonblocking transfers
// and the signal flag rides the same per-destination completion stream, so
// the consumer's Wait observes the flag only at or after every element of the
// section — signal-mediated completion with zero quiets on the critical path.
// vals is taken at issue, like PutAsync's, so the producer may reuse it at
// once and owes no quiet on this account; the consumer needs nothing beyond
// Wait.
//
// On transports without the fused path (MPI-3 RMA) it degrades to a blocking put
// section, a full quiet, and a plain Notify — the same observable ordering,
// without the overlap.
func (c *Coarray[T]) PutSignalAsync(j int, sec Section, vals []T, sig *Signal) {
	c.section(false, true, j, sec, vals)
	sig.post(j, true)
}

// PutFullSignalAsync sends the entire local-shape section with a fused
// signal.
func (c *Coarray[T]) PutFullSignalAsync(j int, vals []T, sig *Signal) {
	c.PutSignalAsync(j, All(c.shape...), vals, sig)
}
