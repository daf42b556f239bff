package shmem

import (
	"testing"

	"cafshmem/internal/pgas"
)

// TestTypedRMASteadyStateAllocs pins the typed RMA family to the heap budget
// of the byte calls beneath it: a typed slice travels as a view of its own
// bytes (pgas.Bytes), a single element through a stack word, and a strided
// local operand through the PE's reused staging buffer, so only Get — which
// returns a fresh slice — allocates at all.
func TestTypedRMASteadyStateAllocs(t *testing.T) {
	if pgas.RaceEnabled {
		t.Skip("race instrumentation allocates; alloc assertion is meaningless")
	}
	err := Run(crayCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(8 * 256)
		if pe.MyPE() == 0 {
			vals := make([]float64, 64)
			ops := []struct {
				name string
				want float64
				call func()
			}{
				{"Put", 0, func() { Put(pe, 1, sym, 0, vals) }},
				{"P", 0, func() { P(pe, 1, sym, 3, int64(7)) }},
				{"IPut/unit-stride source", 0, func() { IPut(pe, 1, sym, 0, 2, vals, 0, 1, 64) }},
				{"IPut/strided source", 0, func() { IPut(pe, 1, sym, 0, 2, vals, 0, 2, 32) }},
				{"PutNBI", 0, func() { PutNBI(pe, 1, sym, 0, vals) }},
				{"Get", 1, func() { _ = Get[float64](pe, 1, sym, 0, 64) }},
				{"G", 0, func() { _ = G[int64](pe, 1, sym, 3) }},
				{"IGet/unit-stride destination", 0, func() { IGet(pe, 1, sym, 0, 2, vals, 0, 1, 64) }},
				{"IGet/strided destination", 0, func() { IGet(pe, 1, sym, 0, 2, vals, 0, 2, 32) }},
				{"GetNBI", 0, func() { GetNBI(pe, 1, sym, 0, vals) }},
			}
			for _, op := range ops {
				if got := testing.AllocsPerRun(200, func() { op.call(); pe.Quiet() }); got != op.want {
					t.Errorf("%s: %v allocs per call, want %v", op.name, got, op.want)
				}
			}
		}
		pe.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}
