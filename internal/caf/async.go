package caf

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
func (c *Coarray[T]) PutAsync(j int, sec Section, vals []T) { c.put(j, sec, vals, true) }

// PutFullAsync writes the entire local array of image j asynchronously.
func (c *Coarray[T]) PutFullAsync(j int, vals []T) { c.PutAsync(j, All(c.shape...), vals) }

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
	img.pollFault()
	return statFromErr(img.complete(-1, true))
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
	_ = img.complete(j-1, false) // no stat: nothing to report
}

// SyncMemoryImageStat is SyncMemoryImage with failed-image reporting: it
// returns StatFailedImage when image j had failed with transfers to it still
// in flight (those writes were dropped).
func (img *Image) SyncMemoryImageStat(j int) Stat {
	img.pollFault()
	img.checkImage(j)
	return statFromErr(img.complete(j-1, true))
}
