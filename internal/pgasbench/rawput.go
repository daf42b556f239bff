package pgasbench

import (
	"fmt"
	"sync"

	"cafshmem/internal/fabric"
	"cafshmem/internal/gasnet"
	"cafshmem/internal/mpi3"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
)

// Library identifies a raw one-sided communication library under test
// (the comparators of paper §III).
type Library int

const (
	LibSHMEM Library = iota
	LibMPI3
	LibGASNet
)

// RawPutConfig describes one point-to-point put experiment: pairs of PEs on
// two nodes (member i talks to member i+coresPerNode), with `Pairs` of them
// active — the paper's 1-pair (no contention) and 16-pair (full node)
// configurations.
type RawPutConfig struct {
	Machine *fabric.Machine
	Profile string
	Library Library
	Pairs   int
	Sizes   []int // message sizes in bytes
	Iters   int   // put iterations per size
}

// PutLatency measures one-way put latency (put + completion) in µs per size.
func PutLatency(cfg RawPutConfig) (Series, error) {
	return rawPut(cfg, true)
}

// PutBandwidth measures streaming put bandwidth in MB/s per size: Iters puts
// back to back, one completion at the end.
func PutBandwidth(cfg RawPutConfig) (Series, error) {
	return rawPut(cfg, false)
}

func rawPut(cfg RawPutConfig, latency bool) (Series, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 50
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 1
	}
	per := cfg.Machine.CoresPerNode
	npes := 2 * per // two full nodes, like the paper's two-compute-node runs
	out := Series{Label: cfg.Profile}

	results := make([]float64, len(cfg.Sizes))
	// Every source PE puts from the one read-only payload; the PEs that
	// never send (all but Pairs of them) need none.
	data := payload(maxSize(cfg.Sizes))
	run := func(body func(rank int, clockNow func() float64, put func(target, size int), quiet func(), barrier func())) error {
		switch cfg.Library {
		case LibSHMEM:
			return shmemRawPut(cfg, npes, data, body)
		case LibMPI3:
			return mpi3RawPut(cfg, npes, data, body)
		case LibGASNet:
			return gasnetRawPut(cfg, npes, data, body)
		}
		return fmt.Errorf("pgasbench: unknown library %d", cfg.Library)
	}

	err := run(func(rank int, clockNow func() float64, put func(target, size int), quiet func(), barrier func()) {
		isSrc := rank < cfg.Pairs // sources live on node 0
		target := rank + per      // partner on node 1
		for si, size := range cfg.Sizes {
			barrier()
			start := clockNow()
			if isSrc {
				for i := 0; i < cfg.Iters; i++ {
					put(target, size)
					if latency {
						quiet()
					}
				}
				if !latency {
					quiet()
				}
			}
			barrier()
			if rank == 0 {
				elapsed := clockNow() - start
				// Subtract nothing: barrier cost is shared by all series.
				if latency {
					results[si] = elapsed / float64(cfg.Iters) / 1e3 // µs
				} else {
					bytes := float64(size) * float64(cfg.Iters)
					results[si] = bytes / (elapsed / 1e9) / 1e6 // MB/s
				}
			}
		}
	})
	if err != nil {
		return out, err
	}
	for si, size := range cfg.Sizes {
		out.Rows = append(out.Rows, Row{X: float64(size), Value: results[si]})
	}
	return out, nil
}

// The three library adapters share this symmetric buffer size, the largest
// message a series may carry.
const maxRawMsg = 4 << 20

// sharedPayload is the read-only source of every put series: all zeros, read
// concurrently by the source PEs of a world and by one series after another.
// It is created on first use, never at package level: programs that link this
// package without running a series (the benchmark's put_contig_2 child among
// them) must not carry 4 MiB of resident memory for it.
var sharedPayload = sync.OnceValue(func() []byte { return make([]byte, maxRawMsg) })

// payload returns n read-only zero bytes: a prefix of sharedPayload, or a
// buffer of its own for a series that outgrows it.
func payload(n int) []byte {
	if n > maxRawMsg {
		return make([]byte, n)
	}
	return sharedPayload()[:n]
}

// maxSize returns the largest of sizes (0 for none).
func maxSize(sizes []int) int {
	m := 0
	for _, s := range sizes {
		m = max(m, s)
	}
	return m
}

func shmemRawPut(cfg RawPutConfig, npes int, data []byte, body func(int, func() float64, func(int, int), func(), func())) error {
	w, err := shmem.NewWorld(shmem.Config{Machine: cfg.Machine, Profile: cfg.Profile}, npes)
	if err != nil {
		return err
	}
	defer w.PgasWorld().Close()
	w.PgasWorld().SetActivePairsPerNode(cfg.Pairs)
	return w.PgasWorld().Run(func(p *pgas.PE) {
		pe := w.Attach(p)
		buf := pe.Malloc(maxRawMsg)
		body(pe.MyPE(),
			func() float64 { return pe.Clock().Now() },
			func(target, size int) { pe.PutMem(target, buf, 0, data[:size]) },
			pe.Quiet,
			pe.Barrier)
	})
}

func gasnetRawPut(cfg RawPutConfig, npes int, data []byte, body func(int, func() float64, func(int, int), func(), func())) error {
	w, err := gasnet.NewWorld(gasnet.Config{Machine: cfg.Machine, Profile: cfg.Profile}, npes)
	if err != nil {
		return err
	}
	defer w.PgasWorld().Close()
	w.PgasWorld().SetActivePairsPerNode(cfg.Pairs)
	return w.PgasWorld().Run(func(p *pgas.PE) {
		ep := w.Attach(p)
		seg := ep.Malloc(maxRawMsg)
		body(ep.MyNode(),
			func() float64 { return ep.Clock().Now() },
			func(target, size int) { ep.Put(target, seg, 0, data[:size]) },
			ep.WaitSyncAll,
			ep.Barrier)
	})
}

func mpi3RawPut(cfg RawPutConfig, npes int, data []byte, body func(int, func() float64, func(int, int), func(), func())) error {
	w, err := mpi3.NewWorld(mpi3.Config{Machine: cfg.Machine, Profile: cfg.Profile}, npes)
	if err != nil {
		return err
	}
	defer w.PgasWorld().Close()
	w.PgasWorld().SetActivePairsPerNode(cfg.Pairs)
	return w.PgasWorld().Run(func(p *pgas.PE) {
		pr := w.Attach(p)
		win := pr.WinAllocate(maxRawMsg)
		pr.LockAll(win) // the passive-target idiom one-sided benchmarks use
		body(pr.Rank(),
			func() float64 { return pr.Clock().Now() },
			func(target, size int) { pr.Put(win, target, 0, data[:size]) },
			func() { pr.FlushAll(win) },
			func() { pr.FlushAll(win); pr.Barrier() })
		pr.UnlockAll(win)
	})
}
