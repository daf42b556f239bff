package gasnet

import (
	"strings"
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

// A nonblocking get is named as a get, in every shape: a bounds panic and a
// bad-handle finding call it get_nbi, geti_nbi or gets_nbi, never a put.
func TestNonblockingGetNamedAsGet(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    pgas.RMA
	}{
		{"get_nbi", pgas.RMA{Get: true, Target: 1, Off: 60, Local: make([]byte, 8)}},
		{"geti_nbi", pgas.RMA{Get: true, Shape: pgas.Runs, Target: 1, Local: make([]byte, 16), Offs: []int64{0, 60}, Unit: 8}},
		{"gets_nbi", pgas.RMA{Get: true, Shape: pgas.Strided, Target: 1, Off: 32, Local: make([]byte, 16), Unit: 8, Stride: 32}},
	} {
		err := Run(ibvCfg(), 2, func(ep *EP) {
			seg := ep.Malloc(64)
			if ep.MyNode() == 0 {
				d := tc.d
				ep.RMA(&d, seg, true)
			}
		})
		want := "gasnet: " + tc.name + " of "
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Run returned %v, want a bounds panic naming %q", tc.name, err, want)
		}
		cfg := ibvCfg()
		cfg.Sanitize = true
		err = Run(cfg, 2, func(ep *EP) {
			seg := ep.Malloc(64)
			ep.Free(seg)
			if ep.MyNode() == 0 {
				d := tc.d
				d.Off, d.Offs = 0, nil
				d.Local = d.Local[:8]
				if d.Shape == pgas.Runs {
					d.Offs = []int64{0}
				}
				ep.RMA(&d, seg, true)
				ep.WaitSyncAll()
			}
		})
		if err == nil || !strings.Contains(err.Error(), tc.name) || !strings.Contains(err.Error(), "bad-handle") {
			t.Errorf("%s: sanitized Run returned %v, want a bad-handle finding naming it", tc.name, err)
		}
	}
}
