package shmem

import (
	"bytes"
	"math/rand"
	"testing"

	"cafshmem/internal/pgas"
)

// getMemV is the vectored multi-run get (getmemv) through PE.RMA: run i is
// runBytes bytes read from byte offset offs[i] within sym into dst densely.
func getMemV(pe *PE, target int, sym Sym, offs []int64, runBytes int, dst []byte) {
	pe.RMA(&pgas.RMA{Get: true, Shape: pgas.Runs, Target: target, Local: dst, Offs: offs, Unit: runBytes}, sym, false)
}

// The vectored strided entry points must move exactly the bytes the
// element-wise ones do, under the sanitizer (which tracks every put range):
// same scatter layout, same gather, no false positives from the batched
// recording. This is the shmem-layer half of the pgas WriteV/ReadV
// equivalence property.
func TestVectoredStridedMatchesElementwiseSanitized(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 20; iter++ {
		elemSize := []int{1, 4, 8, 16}[rng.Intn(4)]
		nelems := 1 + rng.Intn(20)
		stride := int64(elemSize) * int64(1+rng.Intn(4))
		src := make([]byte, nelems*elemSize)
		rng.Read(src)

		run := func(vectored bool) []byte {
			var got []byte
			err := Run(sanCfg(), 2, func(pe *PE) {
				sym := pe.Malloc(int64(nelems)*stride + 64)
				pe.Barrier()
				if pe.MyPE() == 0 {
					if vectored {
						pe.RMA(&pgas.RMA{Shape: pgas.Strided, Target: 1, Off: 8, Local: src, Unit: elemSize, Stride: stride}, sym, false)
					} else {
						for k := 0; k < nelems; k++ {
							pe.PutMem(1, sym, 8+int64(k)*stride, src[k*elemSize:(k+1)*elemSize])
						}
					}
					pe.Quiet()
				}
				pe.Barrier()
				if pe.MyPE() == 1 {
					got = make([]byte, int(int64(nelems)*stride)+16)
					pe.GetMem(1, sym, 0, got)
				}
				pe.Barrier()
				pe.Free(sym)
			})
			if err != nil {
				t.Fatalf("iter %d (vectored=%v): %v", iter, vectored, err)
			}
			return got
		}

		if v, e := run(true), run(false); !bytes.Equal(v, e) {
			t.Fatalf("iter %d: vectored strided put scattered different bytes than element-wise puts", iter)
		}
	}
}

// PutMemV/GetMemV carry multi-run transfers; under the sanitizer each run is
// recorded as its own put, so a racing un-quieted read must still be caught
// and a quieted round trip must reproduce the bytes exactly.
func TestPutMemVRoundTripSanitized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	runBytes := 24
	offs := []int64{0, 96, 48, 200} // unsorted on purpose
	src := make([]byte, len(offs)*runBytes)
	rng.Read(src)
	var gathered []byte
	err := Run(sanCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(512)
		pe.Barrier()
		if pe.MyPE() == 0 {
			pe.PutMemV(1, sym, offs, runBytes, src)
			pe.Quiet()
		}
		pe.Barrier()
		if pe.MyPE() == 0 {
			gathered = make([]byte, len(offs)*runBytes)
			getMemV(pe, 1, sym, offs, runBytes, gathered)
		}
		pe.Barrier()
		pe.Free(sym)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gathered, src) {
		t.Fatal("PutMemV/GetMemV round trip altered bytes")
	}
}

// A GetMemV racing an un-quieted PutMemV is the same §IV-B ordering bug the
// sanitizer reports for the scalar entry points.
func TestSanitizerCatchesRacingGetMemV(t *testing.T) {
	err := Run(sanCfg(), 2, func(pe *PE) {
		sym := pe.Malloc(256)
		pe.Barrier()
		if pe.MyPE() == 0 {
			src := make([]byte, 32)
			pe.PutMemV(1, sym, []int64{0, 64}, 16, src)
			dst := make([]byte, 16)
			getMemV(pe, 1, sym, []int64{0}, 16, dst) // no Quiet: races the put
		}
		pe.Barrier()
		pe.Free(sym)
	})
	if err == nil {
		t.Fatal("sanitizer missed a GetMemV racing an un-quieted PutMemV")
	}
}
