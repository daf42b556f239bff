package pgasbench

import (
	"bytes"
	"fmt"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
	"cafshmem/internal/gasnet"
	"cafshmem/internal/mpi3"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
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
			return verifyShmem(fabric.Stampede(), fabric.ProfMV2XSHMEM)
		}},
		{"shmem put/get pattern (XC30)", func() error {
			return verifyShmem(fabric.CrayXC30(), fabric.ProfCraySHMEM)
		}},
		{"gasnet put/get pattern", func() error {
			return verifyGasnet(fabric.Stampede(), fabric.ProfGASNetIBV)
		}},
		{"mpi3 put/get pattern", func() error {
			return verifyMPI3(fabric.Stampede(), fabric.ProfMV2XMPI3)
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

func verifyShmem(m *fabric.Machine, prof string) error {
	sizes := []int{1, 7, 8, 64, 4096}
	w, err := shmem.NewWorld(shmem.Config{Machine: m, Profile: prof}, 2*m.CoresPerNode)
	if err != nil {
		return err
	}
	defer w.PgasWorld().Close()
	return w.PgasWorld().Run(func(p *pgas.PE) {
		pe := w.Attach(p)
		sym := pe.Malloc(8192)
		per := m.CoresPerNode
		for round, size := range sizes {
			pe.Barrier()
			if pe.MyPE() < per {
				pe.PutMem(pe.MyPE()+per, sym, 0, pattern(pe.MyPE(), round, size))
			}
			pe.Barrier()
			if pe.MyPE() >= per {
				got := make([]byte, size)
				pe.GetMem(pe.MyPE(), sym, 0, got)
				if !bytes.Equal(got, pattern(pe.MyPE()-per, round, size)) {
					panic(fmt.Sprintf("shmem put verify failed at size %d", size))
				}
			}
			pe.Barrier()
		}
	})
}

func verifyGasnet(m *fabric.Machine, prof string) error {
	w, err := gasnet.NewWorld(gasnet.Config{Machine: m, Profile: prof}, 4)
	if err != nil {
		return err
	}
	defer w.PgasWorld().Close()
	return w.PgasWorld().Run(func(p *pgas.PE) {
		ep := w.Attach(p)
		seg := ep.Malloc(4096)
		for round, size := range []int{1, 13, 512, 4096} {
			ep.Barrier()
			next := (ep.MyNode() + 1) % ep.Nodes()
			ep.Put(next, seg, 0, pattern(ep.MyNode(), round, size))
			ep.Barrier()
			prev := (ep.MyNode() + ep.Nodes() - 1) % ep.Nodes()
			got := make([]byte, size)
			ep.Get(ep.MyNode(), seg, 0, got)
			if !bytes.Equal(got, pattern(prev, round, size)) {
				panic(fmt.Sprintf("gasnet put verify failed at size %d", size))
			}
			ep.Barrier()
		}
	})
}

func verifyMPI3(m *fabric.Machine, prof string) error {
	w, err := mpi3.NewWorld(mpi3.Config{Machine: m, Profile: prof}, 4)
	if err != nil {
		return err
	}
	defer w.PgasWorld().Close()
	return w.PgasWorld().Run(func(p *pgas.PE) {
		pr := w.Attach(p)
		win := pr.WinAllocate(4096)
		pr.LockAll(win)
		for round, size := range []int{1, 13, 512, 4096} {
			pr.FlushAll(win)
			pr.Barrier()
			next := (pr.Rank() + 1) % pr.Size()
			pr.Put(win, next, 0, pattern(pr.Rank(), round, size))
			pr.FlushAll(win)
			pr.Barrier()
			prev := (pr.Rank() + pr.Size() - 1) % pr.Size()
			got := make([]byte, size)
			pr.Get(win, pr.Rank(), 0, got)
			if !bytes.Equal(got, pattern(prev, round, size)) {
				panic(fmt.Sprintf("mpi3 put verify failed at size %d", size))
			}
			pr.Barrier()
		}
		pr.UnlockAll(win)
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
