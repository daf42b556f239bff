package shmem

import (
	"testing"

	"cafshmem/internal/pgas"
)

// TestTypedRMASteadyStateAllocs pins the typed RMA family to the heap budget
// of the byte calls beneath it: a typed slice travels as a view of its own
// bytes (pgas.Bytes) and a single element through a stack word, so none of
// them allocates.
func TestTypedRMASteadyStateAllocs(t *testing.T) {
	defer pgas.PauseGC()()
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
				{"G", 0, func() { _ = G[int64](pe, 1, sym, 3) }},
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
