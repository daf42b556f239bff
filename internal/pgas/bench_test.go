package pgas

import (
	"fmt"
	"testing"

	"cafshmem/internal/fabric"
)

func BenchmarkWrite(b *testing.B) {
	for _, size := range []int{8, 4096, 1 << 20} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			w, err := NewWorld(fabric.Stampede(), 2)
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Write(1, 0, data, float64(i))
			}
		})
	}
}

func BenchmarkRead(b *testing.B) {
	w, err := NewWorld(fabric.Stampede(), 2)
	if err != nil {
		b.Fatal(err)
	}
	w.Write(1, 0, make([]byte, 4096), 0)
	dst := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Read(1, 0, dst)
	}
}

func BenchmarkRMW64(b *testing.B) {
	w, err := NewWorld(fabric.Stampede(), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RMW64(1, 0, OpAdd, 1, float64(i))
	}
}

// BenchmarkViewCopyFloat64 is the host-side data movement of one 8 KiB typed
// put and get: a copy out of the view of the source and one into the view of
// the destination.
func BenchmarkViewCopyFloat64(b *testing.B) {
	src := make([]float64, 1024)
	dst := make([]float64, 1024)
	buf := make([]byte, 8*1024)
	b.SetBytes(8 * 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, Bytes(src))
		copy(Bytes(dst), buf)
	}
}

// BenchmarkBarrierRelease measures steady-state full-world barrier rounds:
// 256 PEs go to sleep, the release fans out through the shard arena, everyone
// re-arrives. The measured region starts with every PE except rank 0 already
// asleep at its first rendezvous (rank 0 holds it open on a host channel), so
// op 1 onward is pure steady state; the companion test below asserts the
// rounds are allocation-free (the arena records are sized at construction, so
// nothing on the sleep/release path should touch the heap).
func BenchmarkBarrierRelease(b *testing.B) {
	const n = 256
	w, err := NewWorld(fabric.Stampede(), n)
	if err != nil {
		b.Fatal(err)
	}
	setup := make(chan struct{})
	start := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(p *PE) {
			if p.ID == 0 {
				close(setup)
				<-start // rank 0 holds the rendezvous open until the timer runs
			}
			for i := 0; i < b.N; i++ {
				p.Clock.Advance(1)
				p.Barrier(0)
			}
		})
	}()
	<-setup
	waitAsleep(w, n-1)
	b.ReportAllocs()
	b.ResetTimer()
	close(start)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

// TestBarrierReleaseZeroAllocs: a steady-state barrier release is 0 allocs/op.
// A regression here means the release path reallocated waiter records or
// otherwise picked up a per-round heap dependency.
func TestBarrierReleaseZeroAllocs(t *testing.T) {
	defer PauseGC()()
	r := testing.Benchmark(BenchmarkBarrierRelease)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Fatalf("steady-state barrier release: %d allocs/op, want 0 (%d allocs over %d rounds)",
			allocs, r.MemAllocs, r.N)
	}
}

func BenchmarkBarrierSync(b *testing.B) {
	w, err := NewWorld(fabric.Stampede(), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err = w.Run(func(p *PE) {
		for i := 0; i < b.N; i++ {
			p.Barrier(0)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
