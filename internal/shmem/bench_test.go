package shmem

import (
	"fmt"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// Host-side execution cost of the library primitives (the virtual-time cost
// model is exercised by the figure benchmarks at the repository root).

func benchWorld(b *testing.B, n int) (*World, []*pgas.PE) {
	b.Helper()
	w, err := NewWorld(Config{Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM}, n)
	if err != nil {
		b.Fatal(err)
	}
	pes := make([]*pgas.PE, n)
	for i := 0; i < n; i++ {
		pes[i] = w.PgasWorld().PE(i)
	}
	return w, pes
}

func BenchmarkPutMem(b *testing.B) {
	for _, size := range []int{8, 1024, 65536} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			w, pes := benchWorld(b, 2)
			pe := w.Attach(pes[0])
			sym := Sym{Off: 64, Size: 1 << 20}
			data := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pe.PutMem(1, sym, 0, data)
			}
		})
	}
}

func BenchmarkGetMem(b *testing.B) {
	w, pes := benchWorld(b, 2)
	pe := w.Attach(pes[0])
	sym := Sym{Off: 64, Size: 1 << 20}
	dst := make([]byte, 1024)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pe.GetMem(1, sym, 0, dst)
	}
}

func BenchmarkFetchAdd(b *testing.B) {
	w, pes := benchWorld(b, 2)
	pe := w.Attach(pes[0])
	sym := Sym{Off: 64, Size: 4096}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pe.FetchAdd(1, sym, 0, 1)
	}
}

func BenchmarkIPutMem(b *testing.B) {
	w, pes := benchWorld(b, 2)
	pe := w.Attach(pes[0])
	sym := Sym{Off: 64, Size: 1 << 20}
	src := make([]byte, 256*8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pe.IPutMem(1, sym, 0, 32, 8, src)
	}
}

func BenchmarkBarrier(b *testing.B) {
	w, err := NewWorld(Config{Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM}, 8)
	if err != nil {
		b.Fatal(err)
	}
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
