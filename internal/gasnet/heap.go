package gasnet

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// symHeap is a bump allocator over the symmetric segment space. GASNet
// itself only attaches a raw segment; runtimes layered on it manage the
// space. We provide a collective Malloc so layered code can allocate
// identical offsets on all nodes, mirroring shmem's symmetric heap (the CAF
// runtime needs this regardless of transport). Only Malloc's release action
// touches it, one at a time, and leaves the outcome in cur and curErr for
// every node to read as it wakes (the protocol is shmem's, see its heap.go).
type symHeap struct {
	brk    int64
	cur    Seg
	curErr error
}

const segAlign = 64

// Malloc collectively reserves a symmetric segment region: every node calls
// with the same size and receives the identical handle. It is one rendezvous,
// whose release action allocates, and the virtual time of the two barriers
// that used to publish the handle and close the call. A failed or stopped
// node is error termination; MallocStat returns it.
func (ep *EP) Malloc(size int64) Seg {
	seg, err := ep.MallocStat(size)
	if err != nil {
		panic(err)
	}
	return seg
}

// MallocStat is Malloc among the survivors, returning BarrierStat's fault.
func (ep *EP) MallocStat(size int64) (Seg, error) {
	ep.p.RecordCollective("Malloc", size)
	err := ep.barrierStat(mallocRelease, size)
	cost := ep.world.barrierNs()
	for range 2 {
		_ = ep.WaitSyncAllStat()
		ep.p.Clock.Advance(cost)
	}
	h := &ep.world.heap
	if h.curErr != nil {
		panic(h.curErr)
	}
	return h.cur, err
}

// mallocRelease is Malloc's release action (ctx is the World).
func mallocRelease(ctx any, size int64, _ float64) {
	h := &ctx.(*World).heap
	sz := (size + segAlign - 1) &^ (segAlign - 1)
	switch {
	case size <= 0:
		h.curErr = fmt.Errorf("gasnet: allocation size must be positive, got %d", size)
	case h.brk+sz > pgas.MaxSegmentBytes:
		h.curErr = fmt.Errorf("gasnet: segment exhausted")
	default:
		h.cur, h.curErr = Seg{Off: h.brk, Size: size}, nil
		h.brk += sz
	}
}
