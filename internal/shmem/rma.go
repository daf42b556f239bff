package shmem

import (
	"fmt"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// PutMem copies data into the symmetric object sym (at byte offset off
// within it) on the target PE — shmem_putmem. It returns after *local*
// completion: the source buffer may be reused, but remote visibility requires
// Quiet (or a synchronising operation). This is precisely the semantic gap
// the paper's §IV-B discusses: CAF's ordering guarantees require the runtime
// to insert quiet operations around OpenSHMEM puts.
func (pe *PE) PutMem(target int, sym Sym, off int64, data []byte) {
	pe.checkTarget(target)
	if int64(len(data)) == 0 {
		return
	}
	if off < 0 || off+int64(len(data)) > sym.Size {
		panic(fmt.Sprintf("shmem: put of %d bytes at offset %d overflows %d-byte symmetric object", len(data), off, sym.Size))
	}
	if san := pe.world.san; san != nil {
		san.recordPut(pe.p.ID, target, sym.Off+off, int64(len(data)))
	}
	pe.linkPenalty()
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	pe.p.Clock.Advance(prof.PutInjectNs(len(data), intra, pairs))
	lat := prof.DeliveryNs(intra, pairs)
	if pe.lossy(target) {
		vis, _ := pe.reliableSend(target, pe.p.Clock.Now(), lat, func(at float64) {
			pe.world.pw.Write(target, sym.Off+off, data, at)
		})
		pe.notePending(target, vis)
		return
	}
	vis := pe.p.Clock.Now() + lat
	pe.world.pw.Write(target, sym.Off+off, data, vis)
	pe.notePending(target, vis)
}

// GetMem copies len(dst) bytes from the symmetric object on the target PE
// into dst — shmem_getmem. Blocking: returns once the data is locally usable.
func (pe *PE) GetMem(target int, sym Sym, off int64, dst []byte) {
	pe.checkTarget(target)
	if len(dst) == 0 {
		return
	}
	if off < 0 || off+int64(len(dst)) > sym.Size {
		panic(fmt.Sprintf("shmem: get of %d bytes at offset %d overflows %d-byte symmetric object", len(dst), off, sym.Size))
	}
	if san := pe.world.san; san != nil {
		san.checkRead(pe.p.ID, target, sym.Off+off, int64(len(dst)))
	}
	pe.linkPenalty()
	intra, pairs := pe.intra(target), pe.pairs()
	start := pe.p.Clock.Now()
	pe.p.Clock.Advance(pe.world.prof.GetNs(len(dst), intra, pairs))
	if pe.lossy(target) {
		pe.reliableGet(target, start, pe.world.prof.DeliveryNs(intra, pairs))
	}
	pe.world.pw.Read(target, sym.Off+off, dst)
}

// Put writes typed elements at element index idx of the symmetric object —
// the typed shmem_put family. vals goes to PutMem as the bytes it already is.
func Put[T pgas.Elem](pe *PE, target int, sym Sym, idx int, vals []T) {
	pe.PutMem(target, sym, int64(idx)*int64(pgas.SizeOf[T]()), pgas.Bytes(vals))
}

// Get reads n typed elements starting at element index idx of the symmetric
// object — the typed shmem_get family.
func Get[T pgas.Elem](pe *PE, target int, sym Sym, idx, n int) []T {
	out := make([]T, n)
	pe.GetMem(target, sym, int64(idx)*int64(pgas.SizeOf[T]()), pgas.Bytes(out))
	return out
}

// P writes a single element (shmem_p).
func P[T pgas.Elem](pe *PE, target int, sym Sym, idx int, v T) {
	one := [1]T{v}
	Put(pe, target, sym, idx, one[:])
}

// G reads a single element (shmem_g).
func G[T pgas.Elem](pe *PE, target int, sym Sym, idx int) T {
	var one [1]T
	pe.GetMem(target, sym, int64(idx)*int64(pgas.SizeOf[T]()), pgas.Bytes(one[:]))
	return one[0]
}

// IPut performs the 1-D strided put — shmem_iput. dstIdx/srcIdx are element
// indices; dstStride/srcStride are element strides (>= 1); nelems elements of
// src (itself a local Go slice) are transferred.
//
// The *cost* of IPut depends on the modelled library: with StridedHardware
// (Cray SHMEM over DMAPP) one descriptor covers the whole vector; with
// StridedLoop (MVAPICH2-X) the library issues one putmem per element —
// paper §V-B2's central observation.
func IPut[T pgas.Elem](pe *PE, target int, sym Sym, dstIdx, dstStride int, src []T, srcIdx, srcStride, nelems int) {
	pe.checkTarget(target)
	if nelems == 0 {
		return
	}
	if dstStride < 1 || srcStride < 1 {
		panic("shmem: iput strides must be >= 1")
	}
	es := int64(pgas.SizeOf[T]())
	need := int64(dstIdx+(nelems-1)*dstStride)*es + es
	if need > sym.Size {
		panic(fmt.Sprintf("shmem: iput overflows symmetric object (need %d bytes, have %d)", need, sym.Size))
	}
	if san := pe.world.san; san != nil {
		san.recordPut(pe.p.ID, target, sym.Off+int64(dstIdx)*es, need-int64(dstIdx)*es)
	}
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	pe.p.Clock.Advance(prof.StridedInjectNs(nelems, int(es), intra, pairs))
	lat := prof.DeliveryNs(intra, pairs)
	// One vectored write (one target-lock acquisition) takes the elements
	// densely: a unit-stride source already is that, as the bytes of src
	// itself; a strided one is gathered into the PE's staging buffer first.
	var buf []byte
	if srcStride == 1 {
		buf = pgas.Bytes(src[srcIdx : srcIdx+nelems])
	} else {
		buf = pe.staging(nelems * int(es))
		for k := 0; k < nelems; k++ {
			pgas.Store(buf[k*int(es):], src[srcIdx+k*srcStride])
		}
	}
	var vis float64
	if pe.lossy(target) {
		// One descriptor, one reliable message, applied before this returns.
		vis, _ = pe.reliableSend(target, pe.p.Clock.Now(), lat, func(at float64) {
			pe.world.pw.WriteV(target, sym.Off+int64(dstIdx)*es, int64(dstStride)*es, int(es), buf, at)
		})
	} else {
		vis = pe.p.Clock.Now() + lat
		pe.world.pw.WriteV(target, sym.Off+int64(dstIdx)*es, int64(dstStride)*es, int(es), buf, vis)
	}
	pe.notePending(target, vis)
}

// IGet performs the 1-D strided get — shmem_iget.
func IGet[T pgas.Elem](pe *PE, target int, sym Sym, srcIdx, srcStride int, dst []T, dstIdx, dstStride, nelems int) {
	pe.checkTarget(target)
	if nelems == 0 {
		return
	}
	if dstStride < 1 || srcStride < 1 {
		panic("shmem: iget strides must be >= 1")
	}
	es := int64(pgas.SizeOf[T]())
	need := int64(srcIdx+(nelems-1)*srcStride)*es + es
	if need > sym.Size {
		panic(fmt.Sprintf("shmem: iget overflows symmetric object (need %d bytes, have %d)", need, sym.Size))
	}
	if san := pe.world.san; san != nil {
		san.checkRead(pe.p.ID, target, sym.Off+int64(srcIdx)*es, need-int64(srcIdx)*es)
	}
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	// Symmetric cost model to IPut plus the request round trip of a get.
	start := pe.p.Clock.Now()
	pe.p.Clock.Advance(prof.StridedInjectNs(nelems, int(es), intra, pairs) + 2*prof.DeliveryNs(intra, pairs))
	if pe.lossy(target) {
		pe.reliableGet(target, start, prof.DeliveryNs(intra, pairs))
	}
	// One vectored read gathers the elements densely: straight into dst's
	// own bytes when dst is unit-stride, else into the PE's staging buffer
	// and from there to the caller's strided destination.
	if dstStride == 1 {
		pe.world.pw.ReadV(target, sym.Off+int64(srcIdx)*es, int64(srcStride)*es, int(es), pgas.Bytes(dst[dstIdx:dstIdx+nelems]))
		return
	}
	raw := pe.staging(nelems * int(es))
	pe.world.pw.ReadV(target, sym.Off+int64(srcIdx)*es, int64(srcStride)*es, int(es), raw)
	for k := 0; k < nelems; k++ {
		dst[dstIdx+k*dstStride] = pgas.Load[T](raw[k*int(es):])
	}
}

// staging returns the PE's n-byte staging buffer, which makes a strided local
// operand of IPut/IGet dense for one vectored transfer. It is valid until the
// PE's next strided call and lives no longer than the PE.
func (pe *PE) staging(n int) []byte {
	if cap(pe.stage) < n {
		pe.stage = make([]byte, n)
	}
	return pe.stage[:n]
}

// IPutMem is the byte-level 1-D strided put used by layered runtimes: nelems
// elements of elemSize bytes each are taken densely from src and scattered to
// the target at byte stride dstStrideBytes starting at absolute byte offset
// off within sym. Costs follow the library's strided mode exactly like IPut.
func (pe *PE) IPutMem(target int, sym Sym, off, dstStrideBytes int64, elemSize int, src []byte) {
	pe.checkTarget(target)
	if elemSize <= 0 || len(src)%elemSize != 0 {
		panic("shmem: iputmem source not a whole number of elements")
	}
	nelems := len(src) / elemSize
	if nelems == 0 {
		return
	}
	if dstStrideBytes < int64(elemSize) {
		panic("shmem: iputmem stride smaller than element")
	}
	need := off + int64(nelems-1)*dstStrideBytes + int64(elemSize)
	if off < 0 || need > sym.Size {
		panic(fmt.Sprintf("shmem: iputmem overflows symmetric object (need %d bytes, have %d)", need, sym.Size))
	}
	if san := pe.world.san; san != nil {
		san.recordPut(pe.p.ID, target, sym.Off+off, need-off)
	}
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	pe.p.Clock.Advance(prof.StridedInjectNs(nelems, elemSize, intra, pairs) +
		prof.StridedLocalityNs(nelems, elemSize, dstStrideBytes))
	lat := prof.DeliveryNs(intra, pairs)
	if pe.lossy(target) {
		vis, _ := pe.reliableSend(target, pe.p.Clock.Now(), lat, func(at float64) {
			pe.world.pw.WriteV(target, sym.Off+off, dstStrideBytes, elemSize, src, at)
		})
		pe.notePending(target, vis)
		return
	}
	vis := pe.p.Clock.Now() + lat
	pe.world.pw.WriteV(target, sym.Off+off, dstStrideBytes, elemSize, src, vis)
	pe.notePending(target, vis)
}

// IGetMem is the byte-level 1-D strided get: nelems elements are gathered
// from the target at byte stride srcStrideBytes into dst densely.
func (pe *PE) IGetMem(target int, sym Sym, off, srcStrideBytes int64, elemSize int, dst []byte) {
	pe.checkTarget(target)
	if elemSize <= 0 || len(dst)%elemSize != 0 {
		panic("shmem: igetmem destination not a whole number of elements")
	}
	nelems := len(dst) / elemSize
	if nelems == 0 {
		return
	}
	if srcStrideBytes < int64(elemSize) {
		panic("shmem: igetmem stride smaller than element")
	}
	need := off + int64(nelems-1)*srcStrideBytes + int64(elemSize)
	if off < 0 || need > sym.Size {
		panic(fmt.Sprintf("shmem: igetmem overflows symmetric object (need %d bytes, have %d)", need, sym.Size))
	}
	if san := pe.world.san; san != nil {
		san.checkRead(pe.p.ID, target, sym.Off+off, need-off)
	}
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	start := pe.p.Clock.Now()
	pe.p.Clock.Advance(prof.StridedInjectNs(nelems, elemSize, intra, pairs) +
		prof.StridedLocalityNs(nelems, elemSize, srcStrideBytes) + 2*prof.DeliveryNs(intra, pairs))
	if pe.lossy(target) {
		pe.reliableGet(target, start, prof.DeliveryNs(intra, pairs))
	}
	pe.world.pw.ReadV(target, sym.Off+off, srcStrideBytes, elemSize, dst)
}

// PutMemV is the vectored multi-run put: run i is runBytes bytes, taken
// densely from src, landing at byte offset offs[i] within sym on the target.
// The modelled cost — per-run injection, link penalties, sanitizer
// accounting, and each run's visibility time — is computed exactly as
// len(offs) successive PutMem calls would compute it; only the host-side
// data movement is batched, with a single target-lock acquisition. This is
// what makes the naive strided algorithm's "one putmem per contiguous run"
// translation cheap to execute without changing what it models.
func (pe *PE) PutMemV(target int, sym Sym, offs []int64, runBytes int, src []byte) {
	pe.checkTarget(target)
	if runBytes <= 0 || len(src) != len(offs)*runBytes {
		panic("shmem: putmemv source does not match runs")
	}
	if len(offs) == 0 {
		return
	}
	san := pe.world.san
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	// Every run costs the same: the terms are evaluated once, the clock still
	// advances once per run.
	inject, delivery := prof.PutInjectNs(runBytes, intra, pairs), prof.DeliveryNs(intra, pairs)
	if pe.lossy(target) {
		// Each run is its own reliable message: same per-run cost
		// arithmetic, but delivery goes through the protocol and the
		// receiver's duplicate window instead of one batched WriteRuns.
		for i, off := range offs {
			if off < 0 || off+int64(runBytes) > sym.Size {
				panic(fmt.Sprintf("shmem: putmemv run of %d bytes at offset %d overflows %d-byte symmetric object", runBytes, off, sym.Size))
			}
			if san != nil {
				san.recordPut(pe.p.ID, target, sym.Off+off, int64(runBytes))
			}
			pe.linkPenalty()
			pe.p.Clock.Advance(inject)
			run := src[i*runBytes : (i+1)*runBytes]
			runOff := sym.Off + off
			vis, _ := pe.reliableSend(target, pe.p.Clock.Now(), delivery, func(at float64) {
				pe.world.pw.Write(target, runOff, run, at)
			})
			pe.notePending(target, vis)
		}
		return
	}
	visAt := pe.visAt[:0]
	for _, off := range offs {
		if off < 0 || off+int64(runBytes) > sym.Size {
			panic(fmt.Sprintf("shmem: putmemv run of %d bytes at offset %d overflows %d-byte symmetric object", runBytes, off, sym.Size))
		}
		if san != nil {
			san.recordPut(pe.p.ID, target, sym.Off+off, int64(runBytes))
		}
		pe.linkPenalty()
		pe.p.Clock.Advance(inject)
		vis := pe.p.Clock.Now() + delivery
		visAt = append(visAt, vis)
		pe.notePending(target, vis)
	}
	pe.visAt = visAt
	pe.world.pw.WriteRuns(target, sym.Off, offs, runBytes, src, visAt)
}

// GetMemV is the vectored multi-run get: run i is runBytes bytes read from
// byte offset offs[i] within sym on the target into dst densely. Costs are
// identical to len(offs) successive GetMem calls.
func (pe *PE) GetMemV(target int, sym Sym, offs []int64, runBytes int, dst []byte) {
	pe.checkTarget(target)
	if runBytes <= 0 || len(dst) != len(offs)*runBytes {
		panic("shmem: getmemv destination does not match runs")
	}
	if len(offs) == 0 {
		return
	}
	san := pe.world.san
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	for _, off := range offs {
		if off < 0 || off+int64(runBytes) > sym.Size {
			panic(fmt.Sprintf("shmem: getmemv run of %d bytes at offset %d overflows %d-byte symmetric object", runBytes, off, sym.Size))
		}
		if san != nil {
			san.checkRead(pe.p.ID, target, sym.Off+off, int64(runBytes))
		}
		pe.linkPenalty()
		start := pe.p.Clock.Now()
		pe.p.Clock.Advance(prof.GetNs(runBytes, intra, pairs))
		if pe.lossy(target) {
			pe.reliableGet(target, start, prof.DeliveryNs(intra, pairs))
		}
	}
	pe.world.pw.ReadRuns(target, sym.Off, offs, runBytes, dst)
}

// PutSignal writes data into sym at byte offset off on the target and then
// sets the 64-bit signal word at element index sigIdx of sig to sigVal, in
// that order (shmem_put_signal, OpenSHMEM 1.5 flavour). The two writes
// travel as one injection; the substrate applies them in issue order per
// target, so an observer that has seen the signal (WaitUntil64) is
// guaranteed to see the data — completion is signal-mediated, and no Quiet
// is needed on the critical path. This is what lets the collective trees
// complete one 8-byte flag without flushing all outstanding traffic.
//
// Because the consumer synchronises through the signal word (whose write
// timestamp WaitUntil64 merges), the data put is not tracked as an
// outstanding sanitizer put: a reader gated on the signal is ordered after
// it by construction, and a reader that ignores the signal is outside the
// primitive's contract. The initiator's own Quiet still waits for delivery
// (pendingT carries the visibility time).
//
// data may be nil/empty to send just the signal.
func (pe *PE) PutSignal(target int, sym Sym, off int64, data []byte, sig Sym, sigIdx int, sigVal int64) {
	pe.checkTarget(target)
	if len(data) > 0 && (off < 0 || off+int64(len(data)) > sym.Size) {
		panic(fmt.Sprintf("shmem: put_signal of %d bytes at offset %d overflows %d-byte symmetric object", len(data), off, sym.Size))
	}
	sigOff := sig.At(int64(sigIdx) * 8) // bounds-checked absolute offset
	pe.linkPenalty()
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	pe.p.Clock.Advance(prof.PutInjectNs(len(data)+8, intra, pairs))
	lat := prof.DeliveryNs(intra, pairs)
	if pe.lossy(target) {
		// Data and signal travel as one message: either both land (at the
		// same delivery time, preserving signal-mediated completion) or
		// neither does — a dropped doorbell never advertises absent data.
		vis, _ := pe.reliableSend(target, pe.p.Clock.Now(), lat, func(at float64) {
			if len(data) > 0 {
				pe.world.pw.Write(target, sym.Off+off, data, at)
			}
			pe.world.pw.WriteUint64(target, sigOff, uint64(sigVal), at)
		})
		pe.notePending(target, vis)
		return
	}
	vis := pe.p.Clock.Now() + lat
	if len(data) > 0 {
		pe.world.pw.Write(target, sym.Off+off, data, vis)
	}
	pe.world.pw.WriteUint64(target, sigOff, uint64(sigVal), vis)
	pe.notePending(target, vis)
}

// PutSignalNBI is the nonblocking flavour of PutSignal (shmem_put_signal_nbi,
// OpenSHMEM 1.5): data plus the 8-byte signal word travel as one nonblocking
// injection on the default context's stream toward target. Because streams
// serialise per destination on the NIC and the substrate applies writes in
// issue order per target, the signal's completion is at or after every
// previously-issued transfer to the same target — so a consumer that has seen
// the signal (SignalWaitUntil) sees all data the producer streamed to it
// beforehand, including earlier PutMemNBI/PutMemVNBI payloads on the same
// context. That makes it the fused "data + doorbell" of the barrier-free
// ghost exchange: no Quiet, no barrier on the critical path.
//
// As with PutSignal, the data is not tracked as an outstanding sanitizer put
// (completion is signal-mediated); the initiator's own completion point is
// its next Quiet/QuietTarget. data may be nil/empty to send just the signal.
func (pe *PE) PutSignalNBI(target int, sym Sym, off int64, data []byte, sig Sym, sigIdx int, sigVal int64) {
	pe.putSignalNBI(&pe.nbi, target, sym, off, data, sig, sigIdx, sigVal)
}

func (pe *PE) putSignalNBI(streams *fabric.NBIStreams, target int, sym Sym, off int64, data []byte, sig Sym, sigIdx int, sigVal int64) {
	pe.checkTarget(target)
	if len(data) > 0 && (off < 0 || off+int64(len(data)) > sym.Size) {
		panic(fmt.Sprintf("shmem: put_signal_nbi of %d bytes at offset %d overflows %d-byte symmetric object", len(data), off, sym.Size))
	}
	sigOff := sig.At(int64(sigIdx) * 8) // bounds-checked absolute offset
	pe.linkPenalty()
	intra, pairs := pe.intra(target), pe.pairs()
	prof := pe.world.prof
	pe.p.Clock.Advance(prof.NBIInjectNs())
	transfer := prof.NBITransferNs(len(data)+8, intra, pairs)
	lat := prof.DeliveryNs(intra, pairs)
	if pe.lossy(target) {
		streams.IssueAt(target, pe.p.Clock.Now(), transfer, func(wire float64) float64 {
			done, _ := pe.reliableSend(target, wire, lat, func(at float64) {
				if len(data) > 0 {
					pe.world.pw.Write(target, sym.Off+off, data, at)
				}
				pe.world.pw.WriteUint64(target, sigOff, uint64(sigVal), at)
			})
			return done
		})
		return
	}
	done := streams.Issue(target, pe.p.Clock.Now(), transfer, lat)
	if len(data) > 0 {
		pe.world.pw.Write(target, sym.Off+off, data, done)
	}
	pe.world.pw.WriteUint64(target, sigOff, uint64(sigVal), done)
}

func (pe *PE) checkTarget(target int) {
	if target < 0 || target >= pe.NumPEs() {
		panic(fmt.Sprintf("shmem: PE %d out of range [0,%d)", target, pe.NumPEs()))
	}
}
