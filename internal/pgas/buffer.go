package pgas

import "sync"

// Payload ownership. A payload crosses every layer as a []byte — for typed
// data the Bytes view of the caller's own slice — and is never staged on the
// way: every transport's blocking call copies it into (or out of) the target
// partition under the partition lock before it returns. So
//
//   - a blocking call is done with its data argument when it returns, and the
//     caller may overwrite the buffer at once;
//   - whoever retains a payload past the call that received it copies it
//     first: caf's PutAsync/PutSignalAsync snapshot their values at issue, and
//     the sanitizer copies the source of a nonblocking put to compare it with
//     the live buffer at Quiet.
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
