package caf

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// Asynchronous co-indexed writes over OpenSHMEM nonblocking RMA
// (shmem_put_nbi, OpenSHMEM 1.3 §9.5). The paper's §IV-B translation issues a
// quiet after every put; PutAsync instead leaves the transfer in flight so
// the image can overlap it with local computation, and SyncMemory — the
// Fortran 2008 memory-ordering statement — completes everything at once. In
// the virtual-time model an async put charges only the injection overhead at
// issue; the wire time is paid by whoever calls SyncMemory first, capped at
// the slowest outstanding transfer rather than their sum.
//
// Semantics: the values are snapshotted at issue — PutAsync copies vals into a
// buffer the runtime owns before it returns, as an assignment statement
// evaluates its right-hand side — so the caller may reuse vals at once
// (TestPutAsyncSnapshotsValuesAtIssue pins this on every lowering and
// transport; Himeno's reused halo-plane buffers depend on it). What stays
// open until the next SyncMemory is the *remote* side: the caller must not
// assume the target has the data, and same-image ordering with later puts to
// the same location is not guaranteed. On transports without nonblocking
// support (MPI-3 RMA) PutAsync degrades to the blocking Put path, so programs
// stay portable across every backend.

// PutAsync writes vals (dense, column-major section order) into section sec
// of the coarray on image j (1-based) without waiting for remote completion.
// vals is copied before PutAsync returns. Remote completion — and any
// failed-image report — is deferred to the next SyncMemory/SyncMemoryStat (or
// any full synchronisation, e.g. SyncAll).
func (c *Coarray[T]) PutAsync(j int, sec Section, vals []T) {
	c.img.pollFault()
	c.img.checkImage(j)
	if err := sec.validate(c.shape); err != nil {
		panic(err)
	}
	if sec.NumElems() != len(vals) {
		panic(fmt.Sprintf("caf: section selects %d elements but %d values given", sec.NumElems(), len(vals)))
	}
	if c.img.nbi == nil {
		// No nonblocking surface: fall back to the blocking §IV-B translation.
		c.putSection(j-1, sec, vals)
		c.img.maybeQuiet()
		return
	}
	c.putSectionNBI(j-1, sec, vals)
}

// PutFullAsync writes the entire local array of image j asynchronously.
func (c *Coarray[T]) PutFullAsync(j int, vals []T) { c.PutAsync(j, All(c.shape...), vals) }

// putSectionNBI mirrors putSection over the nonblocking transport surface.
// Where putSection hands the transport vals' own bytes, this hands it a fresh
// copy of them (snapshot): that copy is PutAsync's snapshot-at-issue contract
// — the payload is retained past the call, so by pgas/buffer.go's rule it is
// copied — and the runtime (and the sanitizer's live view) owns it until the
// next Quiet, so it is never pooled either: recycling it before then would be
// exactly the source-reuse bug the checker exists to catch.
func (c *Coarray[T]) putSectionNBI(target int, sec Section, vals []T) {
	nbi := c.img.nbi
	es := int64(c.es)

	runDims, runElems := c.contigRun(sec)
	if runDims == len(sec) {
		nbi.PutMemNBI(target, c.secLowOff(sec), snapshot(vals))
		c.img.Stats.AsyncPuts++
		return
	}

	switch c.img.opts.Strided {
	case StridedNaive:
		// One vectored nonblocking call covering every contiguous run.
		offs := c.appendRunOffs(make([]int64, 0, len(vals)/runElems), sec, runDims)
		nbi.PutMemVNBI(target, offs, runElems*c.es, snapshot(vals))
		c.img.Stats.AsyncPuts += int64(len(offs))
	default: // 1dim, 2dim, vendor: 1-D strided nonblocking calls per pencil
		base := c.baseDim(sec)
		strideBytes := int64(sec[base].Step) * c.strides[base] * es
		c.eachPencil(sec, base, func(byteOff int64, gather []T) {
			nbi.PutStrided1DNBI(target, byteOff, strideBytes, c.es, snapshot(gather))
			c.img.Stats.AsyncPuts++
			c.img.Stats.StridedCalls++
		}, vals, nil)
	}
}

// snapshot returns a copy of vals' bytes that the runtime owns.
func snapshot[T pgas.Elem](vals []T) []byte {
	return append([]byte(nil), pgas.Bytes(vals)...)
}

// SyncMemory executes "sync memory": completes all outstanding communication
// of this image — blocking puts and every async transfer in flight — without
// synchronising with other images. After it returns, prior PutAsync data is
// remotely visible.
func (img *Image) SyncMemory() {
	img.pollFault()
	img.quiet()
}

// SyncMemoryStat is SyncMemory with Fortran 2018 failed-image reporting:
// "sync memory (stat=...)". If any image targeted by an outstanding
// nonblocking transfer has failed, it returns StatFailedImage (the transfer
// to the corpse is dropped; transfers to survivors complete normally).
func (img *Image) SyncMemoryStat() Stat {
	if img.nbi == nil {
		img.SyncMemory()
		return StatOK
	}
	img.pollFault()
	err := img.nbi.QuietStat()
	img.Stats.Quiets++
	return statFromErr(err)
}

// SyncMemoryImage completes this image's outstanding communication toward
// image j (1-based) only — the image-selective strengthening of SYNC MEMORY
// that communication contexts make expressible. Transfers to other images
// stay in flight, so a batch targeting one owner pays that owner's completion
// horizon rather than the global one. On transports without per-destination
// completion (MPI-3 RMA) it degrades to the full SyncMemory, which is always
// correct — just stronger.
func (img *Image) SyncMemoryImage(j int) {
	img.pollFault()
	img.checkImage(j)
	if img.nbi == nil {
		img.quiet()
		return
	}
	img.nbi.QuietImage(j - 1)
	img.Stats.Quiets++
}

// SyncMemoryImageStat is SyncMemoryImage with failed-image reporting: it
// returns StatFailedImage when image j had failed with transfers to it still
// in flight (those writes were dropped).
func (img *Image) SyncMemoryImageStat(j int) Stat {
	img.pollFault()
	img.checkImage(j)
	if img.nbi == nil {
		return img.SyncMemoryStat()
	}
	err := img.nbi.QuietImageStat(j - 1)
	img.Stats.Quiets++
	return statFromErr(err)
}
