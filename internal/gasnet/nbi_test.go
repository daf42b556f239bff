package gasnet

import (
	"testing"

	"cafshmem/internal/pgas"
)

// An implicit-handle put (gasnet_put_nbi, through RMA) charges only the
// injection overhead at issue: the transfer and delivery are paid by the
// sync, so compute between post and sync genuinely overlaps communication.
// WaitSyncImage drains one destination without touching the others.
func TestImplicitHandlesNonblocking(t *testing.T) {
	err := Run(ibvCfg(), 3, func(ep *EP) {
		seg := ep.Malloc(1 << 20)
		ep.Barrier()
		if ep.MyNode() == 0 {
			prof := ep.world.prof
			data := make([]byte, 512*1024)
			t0 := ep.Clock().Now()
			ep.RMA(&pgas.RMA{Target: 1, Local: data}, seg, true)
			if got := ep.Clock().Now() - t0; got != prof.NBIInjectNs() {
				t.Errorf("put_nbi issue cost %v ns, want injection-only %v ns", got, prof.NBIInjectNs())
			}
			ep.WaitSyncImage(1)
			// An immediate sync pays exactly what the blocking put would
			// have: injection + transfer + delivery (the NBI split-cost
			// invariant), with the sync's own overhead absorbed by the merge.
			intra, pairs := ep.intra(1), ep.pairs()
			blocking := prof.PutInjectNs(len(data), intra, pairs) + prof.DeliveryNs(intra, pairs)
			if got := ep.Clock().Now() - t0; got != blocking {
				t.Errorf("put_nbi + immediate sync cost %v ns, want blocking-equivalent %v ns", got, blocking)
			}

			ep.RMA(&pgas.RMA{Target: 1, Local: data[:1024]}, seg, true)
			ep.RMA(&pgas.RMA{Target: 2, Local: data[:1024]}, seg, true)
			ep.WaitSyncImage(1)
			var left []int
			ep.nbi.Targets(func(t int) { left = append(left, t) })
			if len(left) != 1 || left[0] != 2 {
				t.Errorf("after WaitSyncImage(1): destinations in flight %v, want [2]", left)
			}
			ep.WaitSyncAll()
		}
		ep.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
