package shmem

import (
	"fmt"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// Host-side execution cost of the library primitives (the virtual-time cost
// model is exercised by the figure benchmarks at the repository root).

// benchOnPE0 runs body on PE 0 of an n-PE world while the other PEs wait in
// the closing barrier, and times body alone.
func benchOnPE0(b *testing.B, n int, body func(pe *PE)) {
	b.Helper()
	err := Run(Config{Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM}, n, func(pe *PE) {
		if pe.MyPE() == 0 {
			b.ResetTimer()
			body(pe)
			b.StopTimer()
		}
		pe.Barrier()
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkPutMem(b *testing.B) {
	for _, size := range []int{8, 1024, 65536} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			sym := Sym{Off: 64, Size: 1 << 20}
			data := make([]byte, size)
			b.SetBytes(int64(size))
			benchOnPE0(b, 2, func(pe *PE) {
				for i := 0; i < b.N; i++ {
					pe.PutMem(1, sym, 0, data)
				}
			})
		})
	}
}

func BenchmarkGetMem(b *testing.B) {
	sym := Sym{Off: 64, Size: 1 << 20}
	dst := make([]byte, 1024)
	b.SetBytes(1024)
	benchOnPE0(b, 2, func(pe *PE) {
		for i := 0; i < b.N; i++ {
			pe.GetMem(1, sym, 0, dst)
		}
	})
}

func BenchmarkFetchAdd(b *testing.B) {
	sym := Sym{Off: 64, Size: 4096}
	benchOnPE0(b, 2, func(pe *PE) {
		for i := 0; i < b.N; i++ {
			pe.FetchAdd(1, sym, 0, 1)
		}
	})
}

func BenchmarkIPutMem(b *testing.B) {
	sym := Sym{Off: 64, Size: 1 << 20}
	src := make([]byte, 256*8)
	benchOnPE0(b, 2, func(pe *PE) {
		for i := 0; i < b.N; i++ {
			pe.RMA(&pgas.RMA{Shape: pgas.Strided, Target: 1, Local: src, Unit: 8, Stride: 32}, sym, false)
		}
	})
}

func BenchmarkBarrier(b *testing.B) {
	w, err := NewWorld(Config{Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM}, 8)
	if err != nil {
		b.Fatal(err)
	}
	defer w.PgasWorld().Close()
	b.ResetTimer()
	err = w.PgasWorld().Run(func(p *pgas.PE) {
		pe := w.Attach(p)
		for i := 0; i < b.N; i++ {
			pe.Barrier()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
