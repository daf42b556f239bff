package caf

import "cafshmem/internal/pgas"

// Event implements coarray events ("type(event_type) :: ev[*]"), one of the
// additional parallel features beyond Fortran 2008 that the OpenUH runtime
// carries (§II-A: "Several additional features, not presently in the Fortran
// standard, are expected in a future revision and are available in the CAF
// implementation in OpenUH"). Events map naturally onto the same OpenSHMEM
// primitives as the rest of the runtime: a remote atomic add posts, a local
// wait-until consumes.
type Event struct {
	img *Image
	off int64
}

// NewEvent collectively creates an event coarray (one counting event per
// image), zero-initialised.
func NewEvent(img *Image) *Event {
	off := img.malloc(8, true) // no deallocator exists; not a leak
	img.storeLocalWord(off, 0)
	img.barrier()
	return &Event{img: img, off: off}
}

// Post executes "event post(ev[j])": atomically increments the count at
// image j (1-based). Posting completes this image's prior puts first, so a
// waiter that sees the post also sees the data it advertises.
func (e *Event) Post(j int) {
	e.img.checkImage(j)
	e.img.quiet()
	e.img.amo(pgas.OpAdd, j-1, e.off, 1, 0)
}

// Wait executes "event wait(ev, until_count=n)": blocks until this image's
// own event count reaches n, then atomically consumes n.
func (e *Event) Wait(untilCount int64) {
	if untilCount < 1 {
		untilCount = 1
	}
	e.img.wait(e.off, pgas.CmpGE, untilCount)
	e.img.amo(pgas.OpAdd, e.img.ThisImage()-1, e.off, -untilCount, 0)
}

// Query executes "call event_query(ev, count)": reads this image's count
// without blocking or consuming.
func (e *Event) Query() int64 {
	return int64(e.img.localWord(e.off))
}
