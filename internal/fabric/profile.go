package fabric

import (
	"math"
	"math/bits"
)

// StridedMode describes how a library implements the 1-dimensional strided
// transfer routines (shmem_iput / shmem_iget or their moral equivalents).
// The distinction is load-bearing for the paper's §V-B2 and §V-D results:
// Cray SHMEM implements iput in hardware via DMAPP, while MVAPICH2-X SHMEM
// implements it as a loop of contiguous putmem calls, so the 2dim_strided
// algorithm only pays off on the former.
type StridedMode int

const (
	// StridedHardware: a single strided descriptor is handed to the NIC; the
	// whole vector costs one injection overhead plus a small per-element cost.
	StridedHardware StridedMode = iota
	// StridedLoop: the library loops over the elements issuing one contiguous
	// put/get per element, so an N-element iput costs N independent RMA ops.
	StridedLoop
)

// AtomicsMode describes how remote atomic memory operations are provided.
type AtomicsMode int

const (
	// AtomicsNative: the NIC (or a native progress engine) executes the atomic
	// remotely; cost is a single round trip.
	AtomicsNative AtomicsMode = iota
	// AtomicsAM: the atomic is emulated with an active message handled by
	// software on the target, adding handler dispatch overhead on top of the
	// round trip. This is GASNet's situation in the paper (§III: "Availability
	// of certain features like remote atomics in OpenSHMEM also provides an
	// edge over GASNet").
	AtomicsAM
)

// CostProfile holds the LogGP-style cost parameters for one communication
// library on one machine. All times are nanoseconds; all per-byte gaps are
// nanoseconds per byte (1 ns/B == 1 GB/s of sustained bandwidth).
type CostProfile struct {
	Name string

	// OverheadNs is o: CPU time to inject one RMA operation (descriptor
	// preparation, library bookkeeping). Paid per call on the initiator.
	OverheadNs float64
	// LatencyNs is L: one-way inter-node wire+switch latency.
	LatencyNs float64
	// GapNsPerByte is G: inverse inter-node injection bandwidth.
	GapNsPerByte float64

	// Intra-node equivalents (shared-memory transport inside a node).
	IntraLatencyNs    float64
	IntraGapNsPerByte float64

	// AtomicNs is the additional round-trip cost of one remote atomic beyond
	// the injection overhead (fetch-add, swap, compare-swap).
	AtomicNs float64
	// Atomics selects native NIC atomics vs active-message emulation.
	Atomics AtomicsMode
	// AMHandlerNs is the software handler dispatch cost paid at the target
	// for active messages (and therefore for AM-emulated atomics).
	AMHandlerNs float64

	// Strided selects the iput/iget implementation strategy.
	Strided StridedMode
	// StridedPerElemNs is the per-element cost of a hardware strided transfer
	// (descriptor walking on the NIC). Ignored in StridedLoop mode.
	StridedPerElemNs float64

	// ContentionLatencyNs is the extra latency added per additional
	// communicating pair sharing the source NIC (HOL blocking, queueing).
	ContentionLatencyNs float64
	// ContentionShareExp shapes how injection bandwidth is shared between p
	// concurrent pairs on a node: effective gap = G * p^ContentionShareExp.
	// 1.0 means perfectly fair sharing; < 1.0 means the NIC has headroom;
	// > 1.0 means sharing is worse than fair (e.g. software locking in the
	// messaging library).
	ContentionShareExp float64

	// WindowSyncNs is the per-operation synchronisation overhead charged by
	// window-based RMA models (MPI-3 passive target: lock/flush bookkeeping).
	WindowSyncNs float64

	// MemGapNsPerByte models the memory-system cost of walking strided data:
	// each strided element effectively touches min(strideBytes, cache line)
	// bytes of memory. This is the "data locality" consideration that §IV-C
	// trades against call count ("we will obtain data from different cache
	// levels"), and it is why strided bandwidth falls as the stride grows.
	MemGapNsPerByte float64

	// share[pairs] is pairs^shareExp as gap computes it, tabled by
	// Machine.AddProfile for pairs up to the machine's cores per node: the
	// term does not depend on the message, and math.Pow on every put cost more
	// than the rest of the model. A profile that was never added to a machine
	// has no table, and one whose exponent was changed since no longer matches
	// shareExp; both take the expression itself.
	share    []float64
	shareExp float64
}

// tabulate fills the contention-share table for pairs 0..maxPairs with the
// expression gap would otherwise evaluate, so the tabled gap is bit-identical.
func (p *CostProfile) tabulate(maxPairs int) {
	p.share, p.shareExp = make([]float64, maxPairs+1), p.ContentionShareExp
	for pairs := range p.share {
		p.share[pairs] = powf(float64(pairs), p.ContentionShareExp)
	}
}

const cacheLineBytes = 64

// StridedLocalityNs returns the extra memory-side cost of accessing nelems
// elements of elemSize bytes at strideBytes spacing, beyond the contiguous
// per-byte cost already charged through the gap term.
func (p *CostProfile) StridedLocalityNs(nelems, elemSize int, strideBytes int64) float64 {
	if p.MemGapNsPerByte <= 0 || strideBytes <= int64(elemSize) {
		return 0
	}
	touched := strideBytes
	if touched > cacheLineBytes {
		touched = cacheLineBytes
	}
	extra := float64(touched - int64(elemSize))
	if extra <= 0 {
		return 0
	}
	return float64(nelems) * extra * p.MemGapNsPerByte
}

// PutInjectNs returns the initiator-side cost of injecting an n-byte
// contiguous put toward a destination pairs-sharing the NIC with `pairs`
// concurrently active communicating pairs. The initiator may continue after
// this time (local completion); remote visibility additionally waits for
// DeliveryNs.
func (p *CostProfile) PutInjectNs(n int, intra bool, pairs int) float64 {
	return p.OverheadNs + float64(n)*p.gap(intra, pairs)
}

// DeliveryNs returns the additional time after injection until an n-byte
// message becomes visible at the target.
func (p *CostProfile) DeliveryNs(intra bool, pairs int) float64 {
	return p.latency(intra, pairs)
}

// GetNs returns the initiator-side cost of a blocking n-byte contiguous get:
// a request round trip plus the data streaming back.
func (p *CostProfile) GetNs(n int, intra bool, pairs int) float64 {
	return p.OverheadNs + 2*p.latency(intra, pairs) + float64(n)*p.gap(intra, pairs)
}

// AtomicRTTNs returns the initiator-side cost of one remote atomic.
func (p *CostProfile) AtomicRTTNs(intra bool, pairs int) float64 {
	c := p.OverheadNs + 2*p.latency(intra, pairs) + p.AtomicNs
	if p.Atomics == AtomicsAM {
		c += p.AMHandlerNs
	}
	return c
}

// BarrierNs returns the cost of a dissemination barrier over n PEs spread
// across the given number of nodes.
func (p *CostProfile) BarrierNs(n, nodes int) float64 {
	if n <= 1 {
		return p.OverheadNs
	}
	rounds := CeilLog2(n)
	lat := p.IntraLatencyNs
	if nodes > 1 {
		lat = p.LatencyNs
	}
	return float64(rounds) * (lat + p.OverheadNs)
}

// StridedInjectNs returns the initiator-side cost of a 1-D strided transfer
// of nelems elements of elemSize bytes each.
func (p *CostProfile) StridedInjectNs(nelems, elemSize int, intra bool, pairs int) float64 {
	bytes := float64(nelems * elemSize)
	switch p.Strided {
	case StridedHardware:
		return p.OverheadNs + float64(nelems)*p.StridedPerElemNs + bytes*p.gap(intra, pairs)
	default: // StridedLoop: one independent put per element.
		return float64(nelems)*p.OverheadNs + bytes*p.gap(intra, pairs)
	}
}

func (p *CostProfile) gap(intra bool, pairs int) float64 {
	g := p.GapNsPerByte
	if intra {
		g = p.IntraGapNsPerByte
	}
	if pairs > 1 {
		if pairs < len(p.share) && p.shareExp == p.ContentionShareExp {
			g *= p.share[pairs]
		} else {
			g *= powf(float64(pairs), p.ContentionShareExp)
		}
	}
	return g
}

func (p *CostProfile) latency(intra bool, pairs int) float64 {
	l := p.LatencyNs
	if intra {
		l = p.IntraLatencyNs
	}
	if pairs > 1 {
		l += float64(pairs-1) * p.ContentionLatencyNs
	}
	return l
}

// CeilLog2 is ⌈log2 n⌉, the rounds of a dissemination or binomial tree over n
// PEs: 0 for n <= 1.
func CeilLog2(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func powf(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Pow(x, y)
}
