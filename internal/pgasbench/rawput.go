package pgasbench

import (
	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
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
	return rawSeries(cfg, false, true)
}

// PutBandwidth measures streaming put bandwidth in MB/s per size: Iters puts
// back to back, one completion at the end.
func PutBandwidth(cfg RawPutConfig) (Series, error) {
	return rawSeries(cfg, false, false)
}

// rawSeries runs one point-to-point series on two full nodes, like the
// paper's two-compute-node runs: per size, between two barriers, each source
// issues Iters puts (or gets) toward its partner, and rank 0 reports the
// elapsed virtual time as a latency in µs or a bandwidth in MB/s. A put
// latency completes every put, a put bandwidth the whole batch; a get
// completes itself.
func rawSeries(cfg RawPutConfig, get, latency bool) (Series, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 50
		if get {
			cfg.Iters = 20
		}
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 1
	}
	per := cfg.Machine.CoresPerNode
	out := Series{Label: cfg.Profile}
	results := make([]float64, len(cfg.Sizes))
	// Every source PE puts from the read-only zero source, read concurrently
	// by the series a figure runs at once (parallel): its bulk puts store
	// nothing onto target pages without bytes, and cost no scan to tell
	// (pgas.Zeros). The PEs that never send (all but Pairs of them) need no
	// payload. A get's destination is its rank's own, and only the ranks that
	// issue gets allocate one.
	var data []byte
	if !get {
		data = pgas.Zeros(maxSize(cfg.Sizes))
	}
	err := runRaw(cfg, 2*per, func(r rawRank) {
		rank := r.rank()
		isSrc := rank < cfg.Pairs // sources live on node 0
		target := rank + per      // partner on node 1
		buf := data
		if get && isSrc {
			buf = make([]byte, maxSize(cfg.Sizes))
		}
		for si, size := range cfg.Sizes {
			r.barrier()
			start := r.clock().Now()
			if isSrc {
				for i := 0; i < cfg.Iters; i++ {
					if get {
						r.get(target, buf[:size])
						continue
					}
					r.put(target, buf[:size])
					if latency {
						r.quiet()
					}
				}
				if !get && !latency {
					r.quiet()
				}
			}
			r.barrier()
			if rank == 0 {
				elapsed := r.clock().Now() - start
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

// The rows of the library table share this symmetric buffer size, the largest
// message a series may carry.
const maxRawMsg = 4 << 20

// maxSize returns the largest of sizes (0 for none).
func maxSize(sizes []int) int {
	m := 0
	for _, s := range sizes {
		m = max(m, s)
	}
	return m
}
