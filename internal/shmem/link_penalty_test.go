package shmem

import (
	"math"
	"testing"

	"cafshmem/internal/fabric"
)

// shapeCall is one row of the per-shape table: a call issuing msgs messages
// from PE 0 to PE 1.
type shapeCall struct {
	name string
	msgs int
	call func(pe *PE, ctx *Ctx, data, sig Sym, buf []byte, f64 []float64)
}

var shapeCalls = []shapeCall{
	{"PutMem", 1, func(pe *PE, _ *Ctx, d, _ Sym, b []byte, _ []float64) { pe.PutMem(1, d, 0, b[:64]) }},
	{"PutMemNBI", 1, func(pe *PE, _ *Ctx, d, _ Sym, b []byte, _ []float64) { pe.PutMemNBI(1, d, 0, b[:64]) }},
	{"PutMemV", 3, func(pe *PE, _ *Ctx, d, _ Sym, b []byte, _ []float64) {
		pe.PutMemV(1, d, []int64{0, 64, 128}, 32, b[:96])
	}},
	{"PutMemVNBI", 3, func(pe *PE, _ *Ctx, d, _ Sym, b []byte, _ []float64) {
		pe.PutMemVNBI(1, d, []int64{0, 64, 128}, 32, b[:96])
	}},
	{"IPut", 1, func(pe *PE, _ *Ctx, d, _ Sym, _ []byte, f []float64) { IPut(pe, 1, d, 0, 3, f, 0, 2, 8) }},
	{"IPutMem", 1, func(pe *PE, _ *Ctx, d, _ Sym, b []byte, _ []float64) { pe.IPutMem(1, d, 0, 24, 8, b[:64]) }},
	{"IPutMemNBI", 1, func(pe *PE, _ *Ctx, d, _ Sym, b []byte, _ []float64) { pe.IPutMemNBI(1, d, 0, 24, 8, b[:64]) }},
	{"PutSignal", 1, func(pe *PE, _ *Ctx, d, s Sym, b []byte, _ []float64) { pe.PutSignal(1, d, 0, b[:32], s, 0, 1) }},
	{"PutSignalNBI", 1, func(pe *PE, _ *Ctx, d, s Sym, b []byte, _ []float64) { pe.PutSignalNBI(1, d, 0, b[:32], s, 0, 1) }},
	{"GetMem", 1, func(pe *PE, _ *Ctx, d, _ Sym, b []byte, _ []float64) { pe.GetMem(1, d, 0, b[:64]) }},
	{"GetMemNBI", 1, func(pe *PE, _ *Ctx, d, _ Sym, b []byte, _ []float64) { pe.GetMemNBI(1, d, 0, b[:64]) }},
	{"GetMemV", 3, func(pe *PE, _ *Ctx, d, _ Sym, b []byte, _ []float64) {
		pe.GetMemV(1, d, []int64{0, 64, 128}, 32, b[:96])
	}},
	{"IGet", 1, func(pe *PE, _ *Ctx, d, _ Sym, _ []byte, f []float64) { IGet(pe, 1, d, 0, 3, f, 0, 2, 8) }},
	{"IGetMem", 1, func(pe *PE, _ *Ctx, d, _ Sym, b []byte, _ []float64) { pe.IGetMem(1, d, 0, 24, 8, b[:64]) }},
	{"IGetMemNBI", 1, func(pe *PE, _ *Ctx, d, _ Sym, b []byte, _ []float64) { pe.IGetMemNBI(1, d, 0, 24, 8, b[:64]) }},
	{"Ctx.PutMemNBI", 1, func(_ *PE, c *Ctx, d, _ Sym, b []byte, _ []float64) { c.PutMemNBI(1, d, 0, b[:64]) }},
	{"Ctx.GetMemNBI", 1, func(_ *PE, c *Ctx, d, _ Sym, b []byte, _ []float64) { c.GetMemNBI(1, d, 0, b[:64]) }},
	{"Ctx.PutSignalNBI", 1, func(_ *PE, c *Ctx, d, s Sym, b []byte, _ []float64) { c.PutSignalNBI(1, d, 0, b[:32], s, 0, 1) }},
	{"PutMemRepair", 1, func(pe *PE, _ *Ctx, d, _ Sym, b []byte, _ []float64) { pe.PutMemRepair(1, d, 0, b[:64]) }},
	{"ReadWord64", 1, func(pe *PE, _ *Ctx, d, _ Sym, _ []byte, _ []float64) { pe.ReadWord64(1, d, 64) }}, // a word no row wrote
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
			ctx := pe.CtxCreate()
			buf := make([]byte, 128)
			f64 := make([]float64, 16)
			for i, sc := range shapeCalls {
				pe.Quiet()
				ctx.Quiet()
				pe.Clock().Reset()
				sc.call(pe, ctx, data, sig, buf, f64)
				out[i] = pe.Clock().Now()
			}
			ctx.Destroy()
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
