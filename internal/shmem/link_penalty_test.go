package shmem

import (
	"math"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// shapeCall is one row of the per-shape table: a call issuing msgs messages
// from PE 0 to PE 1. The shapes with no routine of their own are a layered
// runtime's descriptors (PE.RMA), named as their op is.
type shapeCall struct {
	name string
	msgs int
	call func(pe *PE, data, sig Sym, buf []byte)
}

// rma issues d from PE 0 toward PE 1 through PE.RMA.
func rma(pe *PE, sym Sym, nbi bool, d pgas.RMA) {
	d.Target = 1
	pe.RMA(&d, sym, nbi)
}

var shapeCalls = []shapeCall{
	{"PutMem", 1, func(pe *PE, d, _ Sym, b []byte) { pe.PutMem(1, d, 0, b[:64]) }},
	{"PutMemNBI", 1, func(pe *PE, d, _ Sym, b []byte) { pe.PutMemNBI(1, d, 0, b[:64]) }},
	{"PutMemV", 3, func(pe *PE, d, _ Sym, b []byte) { pe.PutMemV(1, d, []int64{0, 64, 128}, 32, b[:96]) }},
	{"putmemv_nbi", 3, func(pe *PE, d, _ Sym, b []byte) {
		rma(pe, d, true, pgas.RMA{Shape: pgas.Runs, Local: b[:96], Offs: []int64{0, 64, 128}, Unit: 32})
	}},
	{"iputmem", 1, func(pe *PE, d, _ Sym, b []byte) {
		rma(pe, d, false, pgas.RMA{Shape: pgas.Strided, Local: b[:64], Unit: 8, Stride: 24})
	}},
	{"iputmem_nbi", 1, func(pe *PE, d, _ Sym, b []byte) {
		rma(pe, d, true, pgas.RMA{Shape: pgas.Strided, Local: b[:64], Unit: 8, Stride: 24})
	}},
	{"PutSignal", 1, func(pe *PE, d, s Sym, b []byte) { pe.PutSignal(1, d, 0, b[:32], s, 0, 1) }},
	{"put_signal_nbi", 1, func(pe *PE, d, s Sym, b []byte) {
		rma(pe, d, true, pgas.RMA{Shape: pgas.Signal, Local: b[:32], SigOff: s.At(0), SigVal: 1})
	}},
	{"GetMem", 1, func(pe *PE, d, _ Sym, b []byte) { pe.GetMem(1, d, 0, b[:64]) }},
	{"get_nbi", 1, func(pe *PE, d, _ Sym, b []byte) { rma(pe, d, true, pgas.RMA{Get: true, Local: b[:64]}) }},
	{"getmemv", 3, func(pe *PE, d, _ Sym, b []byte) {
		rma(pe, d, false, pgas.RMA{Get: true, Shape: pgas.Runs, Local: b[:96], Offs: []int64{0, 64, 128}, Unit: 32})
	}},
	{"igetmem", 1, func(pe *PE, d, _ Sym, b []byte) {
		rma(pe, d, false, pgas.RMA{Get: true, Shape: pgas.Strided, Local: b[:64], Unit: 8, Stride: 24})
	}},
	{"igetmem_nbi", 1, func(pe *PE, d, _ Sym, b []byte) {
		rma(pe, d, true, pgas.RMA{Get: true, Shape: pgas.Strided, Local: b[:64], Unit: 8, Stride: 24})
	}},
	{"PutMemRepair", 1, func(pe *PE, d, _ Sym, b []byte) {
		rma(pe, d, false, pgas.RMA{Shape: pgas.Forensic, Local: b[:64]})
	}},
	{"ReadWord64", 1, func(pe *PE, d, _ Sym, _ []byte) { // a word no row wrote
		rma(pe, d, false, pgas.RMA{Get: true, Shape: pgas.Forensic, Off: 64 * 8, Local: make([]byte, 8)})
	}},
}

// issueClocks runs every row of shapeCalls from PE 0 of a fresh 2-PE world
// under plan and returns PE 0's clock advance across each call alone (the
// issue-side cost: completion is not awaited).
func issueClocks(t *testing.T, plan *fabric.FaultPlan) []float64 {
	t.Helper()
	cfg := stampedeCfg()
	cfg.FaultPlan = plan
	out := make([]float64, len(shapeCalls))
	err := Run(cfg, 2, func(pe *PE) {
		data := pe.Malloc(1024)
		sig := pe.Malloc(8)
		if pe.MyPE() == 0 {
			buf := make([]byte, 128)
			for i, sc := range shapeCalls {
				pe.Quiet()
				pe.Clock().Reset()
				sc.call(pe, data, sig, buf)
				out[i] = pe.Clock().Now()
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLinkPenaltyEveryShape: a degraded link slows every put/get shape by
// exactly one penalty per message it sends — a strided halo as much as a
// contiguous one (fabric.LinkDegrade: "every remote operation a PE issues").
func TestLinkPenaltyEveryShape(t *testing.T) {
	base := issueClocks(t, nil)
	slow := issueClocks(t, planDegradedLink)
	for i, sc := range shapeCalls {
		want := float64(sc.msgs) * shapesPenaltyNs
		if got := slow[i] - base[i]; math.Abs(got-want) > 1e-6 {
			t.Errorf("%s: degraded link adds %v ns over the nil plan's %v, want %v (one penalty per message, %d)",
				sc.name, got, base[i], want, sc.msgs)
		}
	}
}
