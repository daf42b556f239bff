package fabric

// Nonblocking-RMA costs. OpenSHMEM 1.3's put_nbi/get_nbi return after
// descriptor injection (the o term of LogGP) and defer both transfer and
// delivery to shmem_quiet. In virtual time that decomposes every blocking
// cost into an initiator CPU part charged at issue and a NIC part tracked by
// the completion streams (streams.go): each nonblocking op reserves the
// injection pipe from when the NIC is next free (per-PE serialisation — one
// NIC, one pipe), streams for its transfer time, and completes one delivery
// latency later. Quiet advances the
// clock to the latest outstanding completion, so compute issued between post
// and quiet genuinely hides communication — the overlap the paper's
// ghost-cell exchange exploits on real hardware.
//
// The decomposition is exact: for every operation,
//
//	blocking cost = NBI issue cost + NBI transfer time (+ delivery, for the
//	                completion Quiet waits on)
//
// so a program that quiets immediately after each nonblocking op pays at
// least the blocking schedule, never less (nbi_test.go pins this).

// NBIInjectNs returns the initiator CPU cost of posting one nonblocking RMA
// op: descriptor preparation only; the bytes stream asynchronously.
func (p *CostProfile) NBIInjectNs() float64 { return p.OverheadNs }

// NBITransferNs returns the NIC occupancy of an n-byte contiguous
// nonblocking transfer: the gap term the blocking path charges inline.
// PutInjectNs(n) == NBIInjectNs() + NBITransferNs(n) for all n.
func (p *CostProfile) NBITransferNs(n int, intra bool, pairs int) float64 {
	return float64(n) * p.gap(intra, pairs)
}

// StridedNBIInjectNs returns the initiator CPU cost of posting a 1-D strided
// nonblocking transfer. In StridedLoop mode the library still loops issuing
// one descriptor per element on the CPU — only the byte streaming overlaps —
// so the paper's §V-B2 software/hardware distinction survives into the
// nonblocking path.
func (p *CostProfile) StridedNBIInjectNs(nelems int) float64 {
	if p.Strided == StridedHardware {
		return p.OverheadNs
	}
	return float64(nelems) * p.OverheadNs
}

// StridedNBITransferNs returns the NIC occupancy of a 1-D strided
// nonblocking transfer (descriptor walking plus byte streaming).
// StridedInjectNs == StridedNBIInjectNs + StridedNBITransferNs, elementwise
// over both strided modes.
func (p *CostProfile) StridedNBITransferNs(nelems, elemSize int, intra bool, pairs int) float64 {
	bytes := float64(nelems*elemSize) * p.gap(intra, pairs)
	if p.Strided == StridedHardware {
		return float64(nelems)*p.StridedPerElemNs + bytes
	}
	return bytes
}
