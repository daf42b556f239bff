package pgasbench

import (
	"fmt"

	"cafshmem/internal/gasnet"
	"cafshmem/internal/mpi3"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
)

// Get-side companions to the put tests: the PGAS Microbenchmark suite the
// paper uses "contains code designed to test the performance and correctness
// for put/get operations" (§V); the paper's figures show the put side, so
// these series are supplementary (used by the caf-level Fig 6/7 harnesses'
// sanity tests and available from cmd/pgas-microbench via the figure code).

// GetLatency measures blocking get latency in µs per size.
func GetLatency(cfg RawPutConfig) (Series, error) {
	return rawGet(cfg, true)
}

// GetBandwidth measures back-to-back get bandwidth in MB/s per size.
func GetBandwidth(cfg RawPutConfig) (Series, error) {
	return rawGet(cfg, false)
}

func rawGet(cfg RawPutConfig, latency bool) (Series, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 20
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 1
	}
	per := cfg.Machine.CoresPerNode
	npes := 2 * per
	out := Series{Label: cfg.Profile}
	results := make([]float64, len(cfg.Sizes))

	// body drives one rank; get fetches into the destination it is handed,
	// which only the ranks that issue gets (Pairs of them) ever allocate.
	body := func(rank int, clockNow func() float64, get func(target int, dst []byte), barrier func()) {
		isSrc := rank < cfg.Pairs
		target := rank + per
		var dst []byte
		if isSrc {
			dst = make([]byte, maxSize(cfg.Sizes))
		}
		for si, size := range cfg.Sizes {
			barrier()
			start := clockNow()
			if isSrc {
				for i := 0; i < cfg.Iters; i++ {
					get(target, dst[:size])
				}
			}
			barrier()
			if rank == 0 {
				elapsed := clockNow() - start
				if latency {
					results[si] = elapsed / float64(cfg.Iters) / 1e3
				} else {
					results[si] = float64(size) * float64(cfg.Iters) / (elapsed / 1e9) / 1e6
				}
			}
		}
	}

	var err error
	switch cfg.Library {
	case LibSHMEM:
		w, werr := shmem.NewWorld(shmem.Config{Machine: cfg.Machine, Profile: cfg.Profile}, npes)
		if werr != nil {
			return out, werr
		}
		defer w.PgasWorld().Close()
		w.PgasWorld().SetActivePairsPerNode(cfg.Pairs)
		err = w.PgasWorld().Run(func(p *pgas.PE) {
			pe := w.Attach(p)
			buf := pe.Malloc(maxRawMsg)
			body(pe.MyPE(), func() float64 { return pe.Clock().Now() },
				func(target int, dst []byte) { pe.GetMem(target, buf, 0, dst) },
				pe.Barrier)
		})
	case LibGASNet:
		w, werr := gasnet.NewWorld(gasnet.Config{Machine: cfg.Machine, Profile: cfg.Profile}, npes)
		if werr != nil {
			return out, werr
		}
		defer w.PgasWorld().Close()
		w.PgasWorld().SetActivePairsPerNode(cfg.Pairs)
		err = w.PgasWorld().Run(func(p *pgas.PE) {
			ep := w.Attach(p)
			seg := ep.Malloc(maxRawMsg)
			body(ep.MyNode(), func() float64 { return ep.Clock().Now() },
				func(target int, dst []byte) { ep.Get(target, seg, 0, dst) },
				ep.Barrier)
		})
	case LibMPI3:
		w, werr := mpi3.NewWorld(mpi3.Config{Machine: cfg.Machine, Profile: cfg.Profile}, npes)
		if werr != nil {
			return out, werr
		}
		defer w.PgasWorld().Close()
		w.PgasWorld().SetActivePairsPerNode(cfg.Pairs)
		err = w.PgasWorld().Run(func(p *pgas.PE) {
			pr := w.Attach(p)
			win := pr.WinAllocate(maxRawMsg)
			pr.LockAll(win)
			body(pr.Rank(), func() float64 { return pr.Clock().Now() },
				func(target int, dst []byte) { pr.Get(win, target, 0, dst) },
				func() { pr.FlushAll(win); pr.Barrier() })
			pr.UnlockAll(win)
		})
	default:
		return out, fmt.Errorf("pgasbench: unknown library %d", cfg.Library)
	}
	if err != nil {
		return out, err
	}
	for si, size := range cfg.Sizes {
		out.Rows = append(out.Rows, Row{X: float64(size), Value: results[si]})
	}
	return out, nil
}
