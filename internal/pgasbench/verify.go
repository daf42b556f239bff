package pgasbench

import (
	"bytes"
	"fmt"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
)

// The PGAS Microbenchmark suite "contains code designed to test the
// performance and correctness for put/get operations" (§V). VerifyAll is the
// correctness half: it drives patterned put/get traffic through every
// modelled library and CAF configuration and checks the data pointwise.

// VerifyAll runs the whole verification battery and returns the list of
// sub-check names that ran (for reporting), or an error on the first
// failure.
func VerifyAll() ([]string, error) {
	var ran []string
	checks := []struct {
		name string
		fn   func() error
	}{
		{"shmem put/get pattern (Stampede)", func() error {
			m := fabric.Stampede()
			return verifyRaw(RawPutConfig{Machine: m, Profile: fabric.ProfMV2XSHMEM, Library: LibSHMEM}, 2*m.CoresPerNode, shmemSizes, acrossNodes)
		}},
		{"shmem put/get pattern (XC30)", func() error {
			m := fabric.CrayXC30()
			return verifyRaw(RawPutConfig{Machine: m, Profile: fabric.ProfCraySHMEM, Library: LibSHMEM}, 2*m.CoresPerNode, shmemSizes, acrossNodes)
		}},
		{"gasnet put/get pattern", func() error {
			return verifyRaw(RawPutConfig{Machine: fabric.Stampede(), Profile: fabric.ProfGASNetIBV, Library: LibGASNet}, 4, ringSizes, ring)
		}},
		{"mpi3 put/get pattern", func() error {
			return verifyRaw(RawPutConfig{Machine: fabric.Stampede(), Profile: fabric.ProfMV2XMPI3, Library: LibMPI3}, 4, ringSizes, ring)
		}},
		{"caf strided cross-check (all algorithms)", verifyCAFStrided},
	}
	for _, c := range checks {
		if err := c.fn(); err != nil {
			return ran, fmt.Errorf("%s: %w", c.name, err)
		}
		ran = append(ran, c.name)
	}
	return ran, nil
}

// pattern fills a buffer with a deterministic byte pattern derived from the
// sender and round, so misrouted or torn transfers are detectable.
func pattern(rank, round, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rank*31 + round*7 + i)
	}
	return b
}

var (
	shmemSizes = []int{1, 7, 8, 64, 4096}
	ringSizes  = []int{1, 13, 512, 4096}
)

// acrossNodes pairs each rank of the first of two nodes with its twin on the
// second; the second node's ranks send nothing (-1).
func acrossNodes(rank, npes int) int {
	if rank < npes/2 {
		return rank + npes/2
	}
	return -1
}

// ring sends each rank's pattern to the next rank.
func ring(rank, npes int) int { return (rank + 1) % npes }

// verifyRaw runs one round per size on an npes-rank job of cfg's library:
// every rank puts pattern(rank, round, size) to peer(rank, npes), if that is
// a rank, and every rank some rank sent to reads its own buffer back and
// compares it with the sender's pattern.
func verifyRaw(cfg RawPutConfig, npes int, sizes []int, peer func(rank, npes int) int) error {
	return runRaw(cfg, npes, func(r rawRank) {
		me, from := r.rank(), -1
		for src := 0; src < npes; src++ {
			if peer(src, npes) == me {
				from = src
			}
		}
		for round, size := range sizes {
			r.barrier()
			if to := peer(me, npes); to >= 0 {
				r.put(to, pattern(me, round, size))
			}
			r.barrier()
			if from >= 0 {
				got := make([]byte, size)
				r.get(me, got)
				if !bytes.Equal(got, pattern(from, round, size)) {
					panic(fmt.Sprintf("put verify failed at size %d", size))
				}
			}
			r.barrier()
		}
	})
}

// verifyCAFStrided sends the same random-ish section through every strided
// algorithm and demands identical target contents.
func verifyCAFStrided() error {
	sec := caf.Section{{Lo: 1, Hi: 13, Step: 3}, {Lo: 0, Hi: 9, Step: 2}, {Lo: 2, Hi: 2, Step: 1}}
	vals := make([]int64, sec.NumElems())
	for i := range vals {
		vals[i] = int64(i*i + 1)
	}
	var reference []int64
	for i, algo := range []caf.StridedAlgo{caf.StridedNaive, caf.StridedOneDim, caf.Strided2Dim, caf.StridedBestDim, caf.StridedVendor} {
		o := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
		o.Strided = algo
		var snapshot []int64
		err := caf.Run(2, o, func(img *caf.Image) {
			c := caf.Allocate[int64](img, 16, 12, 4)
			img.SyncAll()
			if img.ThisImage() == 1 {
				c.Put(2, sec, vals)
			}
			img.SyncAll()
			if img.ThisImage() == 2 {
				snapshot = c.Slice()
			}
			img.SyncAll()
		})
		if err != nil {
			return err
		}
		if i == 0 {
			reference = snapshot
			continue
		}
		for k := range reference {
			if snapshot[k] != reference[k] {
				return fmt.Errorf("algorithm %v diverges from naive at element %d", algo, k)
			}
		}
	}
	return nil
}
