package pgasbench

import (
	"testing"

	"cafshmem/internal/fabric"
)

func TestGetLatencyExceedsPutLatency(t *testing.T) {
	// A blocking get pays a request round trip that a put does not.
	base := RawPutConfig{
		Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM,
		Library: LibSHMEM, Pairs: 1, Sizes: []int{8}, Iters: 10,
	}
	put, err := PutLatency(base)
	if err != nil {
		t.Fatal(err)
	}
	get, err := rawSeries(base, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if get.Rows[0].Value <= put.Rows[0].Value*0.9 {
		t.Fatalf("8B get (%v µs) should not beat put+quiet (%v µs)", get.Rows[0].Value, put.Rows[0].Value)
	}
}

func TestGetBandwidthAllLibraries(t *testing.T) {
	for _, lib := range []struct {
		l    Library
		prof string
	}{
		{LibSHMEM, fabric.ProfMV2XSHMEM},
		{LibGASNet, fabric.ProfGASNetIBV},
		{LibMPI3, fabric.ProfMV2XMPI3},
	} {
		cfg := RawPutConfig{
			Machine: fabric.Stampede(), Profile: lib.prof,
			Library: lib.l, Pairs: 1, Sizes: []int{4096, 1048576}, Iters: 5,
		}
		s, err := rawSeries(cfg, true, false)
		if err != nil {
			t.Fatalf("%s: %v", lib.prof, err)
		}
		if s.Rows[1].Value <= s.Rows[0].Value {
			t.Fatalf("%s: get bandwidth should improve with size", lib.prof)
		}
		if s.Rows[1].Value < 500 || s.Rows[1].Value > 7000 {
			t.Fatalf("%s: 1 MiB get bandwidth %v MB/s implausible", lib.prof, s.Rows[1].Value)
		}
	}
}

func TestGetLatencySHMEMBeatsMPI(t *testing.T) {
	mk := func(lib Library, prof string) float64 {
		cfg := RawPutConfig{
			Machine: fabric.Stampede(), Profile: prof,
			Library: lib, Pairs: 1, Sizes: []int{64}, Iters: 5,
		}
		s, err := rawSeries(cfg, true, true)
		if err != nil {
			t.Fatal(err)
		}
		return s.Rows[0].Value
	}
	shm := mk(LibSHMEM, fabric.ProfMV2XSHMEM)
	mpi := mk(LibMPI3, fabric.ProfMV2XMPI3)
	if shm >= mpi {
		t.Fatalf("SHMEM get (%v µs) should beat MPI-3 (%v µs)", shm, mpi)
	}
}

func TestVerifyAll(t *testing.T) {
	ran, err := VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 5 {
		t.Fatalf("expected 5 verification batteries, ran %d: %v", len(ran), ran)
	}
}
