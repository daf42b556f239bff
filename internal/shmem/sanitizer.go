package shmem

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The runtime sanitizer is the dynamic half of the repository's correctness
// tooling (cmd/shmemvet is the static half). When Config.Sanitize is set, the
// world tracks the PGAS contracts that static analysis can only approximate:
//
//   - every outstanding (un-quieted) put is recorded; a get that overlaps one
//     is a race, because §IV-B remote visibility requires Quiet first;
//   - symmetric allocations still live at Finalize are leaks — shfree is
//     collective, so a forgotten Free wedges the same offsets on every PE for
//     the rest of the job;
//   - the sequence of collective call sites is hashed per PE and compared at
//     Finalize, catching SPMD divergence that completes without deadlocking
//     (e.g. PEs calling Malloc with different sizes);
//   - lock acquisitions are balanced against releases; a lock still held when
//     its owner's image exits is reported, because nobody else can ever take
//     it again (the distributed analogue of returning with a mutex held).
//
// Sanitizing is off by default and every hook is behind a single nil check on
// the World, so the disabled mode costs one predictable branch per operation.
//
// When images have failed (fault injection or FAIL IMAGE), the leak and
// divergence checks are skipped: survivors legitimately diverge from the
// victims' call sequence, and allocations owned by recovery paths may
// intentionally outlive the job. Held-lock reporting also exempts failed
// images — dying while holding a lock is the scenario the fault-tolerant lock
// recovers from, not a bug in the program.

// Violation is one sanitizer finding.
type Violation struct {
	// Kind is "race", "leak", "collective-mismatch", "lock-held",
	// "nbi-src-reuse" (a nonblocking put's source buffer was modified before
	// Quiet), or "nbi-leak" (nonblocking ops still in flight at job end).
	Kind string
	PE   int // the PE the finding is attributed to (-1 for world-level)
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("shmem-sanitizer: %s (PE %d): %s", v.Kind, v.PE, v.Msg)
}

// sanPut is one outstanding one-sided write interval.
type sanPut struct {
	origin    int   // PE that issued the put
	target    int   // PE whose partition it lands in
	off, size int64 // absolute partition offsets
	// ctx scopes nonblocking ops to a communication context: 0 is the default
	// context (completed by pe.Quiet), >0 a created Ctx (completed only by
	// that context's Quiet/Destroy). Blocking puts always carry ctx 0.
	ctx int
	// Nonblocking ops additionally carry the source-buffer contract: live is
	// the caller's source buffer itself (for a typed put, the bytes of its
	// slice) and snap the copy taken of it at issue. A mismatch at Quiet
	// means the program modified the source of an in-flight put_nbi — on
	// real hardware, data corruption.
	nbi  bool
	snap []byte
	live []byte
}

type sanitizer struct {
	mu         sync.Mutex
	pending    map[int][]sanPut // origin PE -> outstanding puts
	internal   map[int64]bool   // heap offsets owned by the runtime, not leaks
	collHash   map[int]uint64   // per-PE FNV-1a chain over collective calls
	collCount  map[int]int
	held       map[int]map[string]int // PE -> lock name -> acquire depth
	violations []Violation
}

func newSanitizer() *sanitizer {
	return &sanitizer{
		pending:   map[int][]sanPut{},
		internal:  map[int64]bool{},
		collHash:  map[int]uint64{},
		collCount: map[int]int{},
		held:      map[int]map[string]int{},
	}
}

// Sanitizing reports whether this world runs with the sanitizer enabled.
func (w *World) Sanitizing() bool { return w.san != nil }

// MarkInternal exempts a symmetric allocation from leak reporting. Layered
// runtimes (the CAF transport) call it for allocations that live for the whole
// job by design. No-op when the sanitizer is disabled.
func (w *World) MarkInternal(sym Sym) {
	if w.san == nil {
		return
	}
	w.san.mu.Lock()
	w.san.internal[sym.Off] = true
	w.san.mu.Unlock()
}

// recordPut notes an outstanding one-sided write. Called with san != nil.
func (s *sanitizer) recordPut(origin, target int, off, size int64) {
	if size <= 0 {
		return
	}
	s.mu.Lock()
	s.pending[origin] = append(s.pending[origin], sanPut{origin: origin, target: target, off: off, size: size})
	s.mu.Unlock()
}

// checkRead flags reads overlapping any outstanding put — including the
// reader's own: a PE reading back its un-quieted put is exactly the bug
// synccheck reports statically.
func (s *sanitizer) checkRead(reader, target int, off, size int64) {
	if size <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, puts := range s.pending {
		for _, p := range puts {
			if p.target == target && off < p.off+p.size && p.off < off+size {
				s.violations = append(s.violations, Violation{
					Kind: "race",
					PE:   reader,
					Msg: fmt.Sprintf("get of [%d,%d) on PE %d races the un-quieted put of [%d,%d) issued by PE %d; complete it with Quiet/Fence/Barrier first",
						off, off+size, target, p.off, p.off+p.size, p.origin),
				})
			}
		}
	}
}

// recordPutNBI notes an outstanding nonblocking write together with its
// source-buffer contract. ctx is the issuing context (0 = default); src is
// snapshotted here and compared with its snapshot at quiesce.
func (s *sanitizer) recordPutNBI(origin, ctx, target int, off, size int64, src []byte) {
	if size <= 0 {
		return
	}
	s.mu.Lock()
	s.pending[origin] = append(s.pending[origin], sanPut{
		origin: origin, target: target, off: off, size: size, ctx: ctx,
		nbi: true, snap: append([]byte(nil), src...), live: src,
	})
	s.mu.Unlock()
}

// completeWhere discharges the origin's outstanding puts for which keep
// returns false, retaining the rest. Completed nonblocking entries verify
// their source-buffer contract on the way out: a buffer that changed between
// issue and the completing Quiet was reused while the NIC could still be
// reading it.
func (s *sanitizer) completeWhere(origin int, keep func(sanPut) bool) {
	s.mu.Lock()
	puts := s.pending[origin]
	kept := puts[:0]
	for _, p := range puts {
		if keep != nil && keep(p) {
			kept = append(kept, p)
			continue
		}
		if p.nbi && !bytes.Equal(p.live, p.snap) {
			s.violations = append(s.violations, Violation{
				Kind: "nbi-src-reuse",
				PE:   origin,
				Msg: fmt.Sprintf("source buffer of the nonblocking put to [%d,%d) on PE %d was modified before Quiet; the NIC may still be streaming it — reuse the buffer only after Quiet returns",
					p.off, p.off+p.size, p.target),
			})
		}
	}
	if len(kept) == 0 {
		delete(s.pending, origin)
	} else {
		s.pending[origin] = kept
	}
	s.mu.Unlock()
}

// quiesceCtx completes the ops issued on one context (Quiet / Ctx.Quiet /
// Ctx.Destroy semantics) and nothing else. The default context (0) carries
// the PE's blocking puts as well as its nonblocking ops; per OpenSHMEM its
// Quiet does NOT complete ops issued on created contexts — those entries
// stay pending until their own context's Quiet/Destroy, and surface as
// nbi-leaks if the context is never quiesced.
func (s *sanitizer) quiesceCtx(origin, ctx int) {
	s.completeWhere(origin, func(p sanPut) bool { return p.ctx != ctx })
}

// quiesceTarget completes one context's ops toward a single destination
// (QuietTarget / Ctx.QuietTarget semantics). Blocking puts toward the target
// complete too when ctx is 0: QuietTarget waits for the per-destination
// blocking horizon as well.
func (s *sanitizer) quiesceTarget(origin, ctx, target int) {
	s.completeWhere(origin, func(p sanPut) bool { return !(p.ctx == ctx && p.target == target) })
}

// noteAcquire records that the PE now holds the named lock.
func (s *sanitizer) noteAcquire(pe int, name string) {
	s.mu.Lock()
	m := s.held[pe]
	if m == nil {
		m = map[string]int{}
		s.held[pe] = m
	}
	m[name]++
	s.mu.Unlock()
}

// noteRelease balances a noteAcquire.
func (s *sanitizer) noteRelease(pe int, name string) {
	s.mu.Lock()
	if m := s.held[pe]; m != nil {
		if m[name]--; m[name] <= 0 {
			delete(m, name)
		}
	}
	s.mu.Unlock()
}

// NoteLockAcquired records lock ownership for the held-at-exit check. The
// shmem locks call it themselves; layered runtimes with their own lock
// implementations (the CAF MCS lock) call it so their locks get the same
// end-of-job reporting. No-op when the sanitizer is disabled.
func (w *World) NoteLockAcquired(pe int, name string) {
	if w.san != nil {
		w.san.noteAcquire(pe, name)
	}
}

// NoteLockReleased balances NoteLockAcquired.
func (w *World) NoteLockReleased(pe int, name string) {
	if w.san != nil {
		w.san.noteRelease(pe, name)
	}
}

// recordCollective folds one collective call site into the PE's FNV-1a chain.
// All PEs must execute the same sequence with matching arguments.
func (s *sanitizer) recordCollective(pe int, op string, args ...int64) {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	s.mu.Lock()
	h, ok := s.collHash[pe]
	if !ok {
		h = fnvOffset
	}
	mix := func(b byte) { h = (h ^ uint64(b)) * fnvPrime }
	for i := 0; i < len(op); i++ {
		mix(op[i])
	}
	mix(0)
	for _, a := range args {
		for i := 0; i < 64; i += 8 {
			mix(byte(uint64(a) >> i))
		}
	}
	s.collHash[pe] = h
	s.collCount[pe]++
	s.mu.Unlock()
}

// Violations returns a copy of the findings recorded so far (races appear as
// they happen; leak and divergence findings appear after Finalize).
func (w *World) Violations() []Violation {
	if w.san == nil {
		return nil
	}
	w.san.mu.Lock()
	defer w.san.mu.Unlock()
	return append([]Violation(nil), w.san.violations...)
}

// Finalize runs the end-of-job checks (heap leaks, collective divergence) and
// returns every violation observed during the job. It is called by Run after
// the SPMD body completes; layered runtimes driving the world themselves call
// it once all PEs have exited. Returns nil when the sanitizer is disabled.
func (w *World) Finalize() []Violation {
	s := w.san
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	// With failed images, leaks and divergence are expected consequences of
	// the failure, not program bugs — see the package comment.
	anyFailed := w.pw.AnyFailed()

	if !anyFailed {
		// Nonblocking ops never completed: the program exited with puts/gets
		// still in flight (no Quiet after the last *_NBI call). Blocking puts
		// are delivered regardless, but an un-quieted NBI op has no defined
		// completion point at all.
		var nbiOrigins []int
		for origin, puts := range s.pending {
			for _, p := range puts {
				if p.nbi {
					nbiOrigins = append(nbiOrigins, origin)
					break
				}
			}
		}
		sort.Ints(nbiOrigins)
		for _, origin := range nbiOrigins {
			n := 0
			for _, p := range s.pending[origin] {
				if p.nbi {
					n++
				}
			}
			s.violations = append(s.violations, Violation{
				Kind: "nbi-leak",
				PE:   origin,
				Msg:  fmt.Sprintf("%d nonblocking op(s) still in flight at image exit; complete them with Quiet", n),
			})
		}

		// Heap leaks: live allocations nobody marked as runtime-internal.
		w.heap.mu.Lock()
		var leaked []span
		for off, size := range w.heap.live {
			if !s.internal[off] {
				leaked = append(leaked, span{off, size})
			}
		}
		w.heap.mu.Unlock()
		sort.Slice(leaked, func(i, j int) bool { return leaked[i].off < leaked[j].off })
		for _, l := range leaked {
			s.violations = append(s.violations, Violation{
				Kind: "leak",
				PE:   -1,
				Msg:  fmt.Sprintf("symmetric allocation of %d bytes at offset %d was never freed", l.size, l.off),
			})
		}

		// Collective divergence: every PE must fold the same call sequence.
		n := w.pw.NumPEs()
		for pe := 1; pe < n; pe++ {
			if s.collCount[pe] != s.collCount[0] || s.collHash[pe] != s.collHash[0] {
				s.violations = append(s.violations, Violation{
					Kind: "collective-mismatch",
					PE:   pe,
					Msg: fmt.Sprintf("collective call sequence diverges from PE 0: %d calls (chain %#x) vs %d calls (chain %#x); all PEs must reach the same collectives with the same arguments",
						s.collCount[pe], s.collHash[pe], s.collCount[0], s.collHash[0]),
				})
			}
		}
	}

	// Locks still held at image exit. A failed image dying with a lock is the
	// fault-tolerant lock's job to clean up, not the program's, so only
	// normally-exited images are reported.
	var holders []int
	for pe := range s.held {
		if len(s.held[pe]) > 0 && !w.pw.Failed(pe) {
			holders = append(holders, pe)
		}
	}
	sort.Ints(holders)
	for _, pe := range holders {
		var names []string
		for name := range s.held[pe] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s.violations = append(s.violations, Violation{
				Kind: "lock-held",
				PE:   pe,
				Msg:  fmt.Sprintf("lock %s still held at image exit (acquired %d time(s) without release); no other image can ever acquire it", name, s.held[pe][name]),
			})
		}
	}
	return append([]Violation(nil), s.violations...)
}

// FinalizeErr runs Finalize and folds any violations into a single error —
// the form layered runtimes (and Run itself) report. Nil when the sanitizer
// is disabled or the job is clean.
func (w *World) FinalizeErr() error { return sanError(w.Finalize()) }

// sanError converts violations into the error Run reports.
func sanError(vs []Violation) error {
	if len(vs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "shmem: sanitizer found %d violation(s):", len(vs))
	for _, v := range vs {
		b.WriteString("\n\t")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}
