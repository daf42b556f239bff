package pgasbench

import (
	"cafshmem/internal/caf"
	"cafshmem/internal/pgas"
)

// lockRounds is how many times each image of the lock microbenchmark
// acquires and releases the lock.
const lockRounds = 5

// LockContention runs the lock microbenchmark of Fig 8 on n images under
// opts — all images repeatedly acquire and release the lock instance at
// image 1 — and returns its total execution time in milliseconds.
//
// Substitution note (recorded in DESIGN.md): on real hardware the MCS queue
// depth emerges from wall-clock racing; under virtual time we serialise the
// acquisitions with a token ring, so that image k's acquire is causally
// ordered after image (k-1)'s release. This reproduces the steady-state
// full-queue behaviour — every acquisition pays one queue handoff — and
// keeps the measurement deterministic. Per-handoff costs (remote atomics,
// notification puts, AM emulation) are exactly the quantities that
// differentiate the three implementations in the paper.
func LockContention(opts caf.Options, n int) (float64, error) {
	var total float64
	err := caf.Run(n, opts, func(img *Image) {
		lck := caf.NewLock(img)
		flag := caf.Allocate[int64](img, 1)
		nimg := img.NumImages()
		me := img.ThisImage()
		next := me%nimg + 1
		img.SyncAll()
		img.Clock().Reset()
		for r := 1; r <= lockRounds; r++ {
			tok := int64((r-1)*nimg + me)
			if !(r == 1 && me == 1) {
				flag.WaitLocal(pgas.CmpGE, tok, 0)
			}
			lck.Acquire(1)
			lck.Release(1)
			flag.PutElem(next, tok+1, 0)
		}
		img.SyncAll()
		if me == 1 {
			total = img.Clock().Now() / 1e6 // ms
		}
	})
	return total, err
}
