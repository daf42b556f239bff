package pgas

import "sync"

// Payload ownership. A payload crosses every layer as a []byte — for typed
// data the Bytes view of the caller's own slice — and is never staged on the
// way: PE.Issue copies every put into the target partition (and every get out
// of it) under the partition lock before it returns, blocking or nonblocking,
// lossy plans included. So
//
//   - every call is done with a put's data argument when it returns, and
//     nobody retains a payload: caf's PutAsync/PutSignalAsync hand the caller's
//     own bytes down and the caller may overwrite them at once;
//   - the one copy beside the landing is the sanitizer's: it snapshots the
//     source of a library-level nonblocking put (shmem_put_nbi, gasnet_put_nbi,
//     whose contract says the source stays unmodified until completion) to
//     compare it with the live buffer at the drain.
//
// What the fast paths still borrow is the run-offset list of a run-list
// transfer. The pool holds pointers to slices so returning a list never
// re-boxes the slice header.

var offsPool = sync.Pool{New: func() any { s := make([]int64, 0, 64); return &s }}

// GetOffsScratch borrows an offset list (for run-list transfers).
func GetOffsScratch() *[]int64 { return offsPool.Get().(*[]int64) }

// PutOffsScratch returns a borrowed offset list to the pool.
func PutOffsScratch(sp *[]int64) {
	*sp = (*sp)[:0]
	offsPool.Put(sp)
}
