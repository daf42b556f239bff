package pgas

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"

	"cafshmem/internal/fabric"
)

// The runtime sanitizer: the repository's one checker of the PGAS contracts.
// With Options.Sanitize set, a world tracks, for every library over it:
//
//   - every outstanding put: Issue records it on the completion set it books
//     the put on, and only a drain of that set (PE.Drain, PE.DrainTarget)
//     discharges it — a get that overlaps one is a race, because §IV-B remote
//     visibility requires Quiet first; a nonblocking put's source buffer must
//     also be unmodified when that drain comes, and one still in flight at
//     the end is a leak;
//   - the live symmetric allocations, which the world's heap (heap.go) keeps
//     with or without the sanitizer: every handle an op uses must lie inside
//     one (CheckHandle), and one still live at the end, unless the runtime's
//     own (MarkInternal), is a leak — a forgotten collective free wedges the
//     same offsets on every PE for the rest of the job;
//   - lock acquisitions balanced against releases — a lock still held when its
//     owner exits can never be taken again — and, as Linux lockdep does, the
//     order locks are taken in: holding A while waiting for B on one PE and B
//     while waiting for A on another is a deadlock the schedule merely avoided.
//
// The end-of-job checks run as World.Run returns, and every finding folds into
// its error. Sanitizing is off by default and every hook is behind a single nil
// check on the World; on or off, it moves no clock.
//
// Collective calls need no sanitizer: every rendezvous compares the calls its
// arrivals bring, always (barrier.go).
//
// When PEs have failed (fault injection or FAIL IMAGE), the leak and
// lock-order checks are skipped: allocations owned by recovery paths may
// outlive the job. Held-lock reporting also exempts failed PEs — dying while holding a
// lock is the scenario the fault-tolerant lock recovers from.

// Violation is one sanitizer finding.
type Violation struct {
	// Kind is "race", "leak", "bad-handle", "lock-held", "lock-order", "nbi-src-reuse" (a nonblocking put's source
	// buffer was modified before its completion) or "nbi-leak" (nonblocking
	// puts still in flight at job end).
	Kind string
	PE   int // the PE the finding is attributed to (-1 for world-level)
	Msg  string
}

func (v Violation) String() string {
	return fmt.Sprintf("sanitizer: %s (PE %d): %s", v.Kind, v.PE, v.Msg)
}

// sanPut is one outstanding one-sided write interval.
type sanPut struct {
	target    int
	off, size int64 // absolute partition offsets
	set       *fabric.NBIStreams
	// A nonblocking put carries its source-buffer contract: live is the
	// caller's source itself, snap the copy taken of it at issue. A mismatch at
	// the completing drain means the program modified the source of an
	// in-flight put — on real hardware, data corruption. Both are nil for a
	// blocking put.
	live, snap []byte
}

type sanitizer struct {
	mu         sync.Mutex
	pending    map[int][]sanPut          // origin PE -> outstanding puts
	held       map[int]map[string]int    // PE -> lock -> acquire depth
	order      map[string]map[string]int // lock held -> lock then waited for -> first PE to do so
	violations []Violation
}

func newSanitizer() *sanitizer {
	return &sanitizer{
		pending: map[int][]sanPut{},
		held:    map[int]map[string]int{},
		order:   map[string]map[string]int{},
	}
}

// Sanitizing reports whether this world runs with the sanitizer enabled.
func (w *World) Sanitizing() bool { return w.san != nil }

// NoteLockAcquired records that the PE now holds the lock named by kind, the
// lock word's offset and idx (an element or image index), for the held-at-exit
// and lock-order checks. waited says the PE could have blocked on it: a
// try-acquisition waits for nothing and so orders no lock before it.
func (p *PE) NoteLockAcquired(kind string, off int64, idx int, waited bool) {
	if s := p.world.san; s != nil {
		s.noteLock(p.ID, kind, off, idx, 1, waited)
	}
}

// NoteLockReleased balances NoteLockAcquired.
func (p *PE) NoteLockReleased(kind string, off int64, idx int) {
	if s := p.world.san; s != nil {
		s.noteLock(p.ID, kind, off, idx, -1, false)
	}
}

// CheckHandle checks the symmetric handle [off, off+size) that op uses: it
// must lie inside one live allocation of this world's heap (its requested
// size, not the aligned one), or it was forged, retargeted, freed or kept from
// another world — a bad-handle finding. The whole-partition view (offset 0,
// MaxSegmentBytes), which a layered runtime addresses by raw offsets, is
// exempt: no allocation starts at offset 0.
func (p *PE) CheckHandle(op string, off, size int64) {
	if s := p.world.san; s != nil {
		s.checkHandle(p, op, off, size)
	}
}

// Drain completes every op booked on set (fabric.NBIStreams.Drain) and, under
// the sanitizer, discharges the puts recorded on it. It is how every library
// completes anything: a quiet, a sync, a flush.
func (p *PE) Drain(set *fabric.NBIStreams) float64 {
	if s := p.world.san; s != nil {
		s.discharge(p.ID, set, -1)
	}
	return set.Drain()
}

// DrainTarget is Drain of set's ops toward target only.
func (p *PE) DrainTarget(set *fabric.NBIStreams, target int) float64 {
	if s := p.world.san; s != nil {
		s.discharge(p.ID, set, target)
	}
	return set.DrainTarget(target)
}

// record notes d, issued by origin and booked on set, with the sanitizer: a
// put as outstanding until a drain of set (a nonblocking one, src non-nil,
// together with its source), a get as a read that must not race one. A run's
// bytes are its own; a strided op is one interval, first element to last. A
// signal put's completion is signal-mediated and a forensic get reads what no
// put is outstanding on, so neither is tracked.
func (s *sanitizer) record(origin int, d *RMA, src []byte, set *fabric.NBIStreams) {
	if d.Shape == Signal || d.Shape == Forensic && d.Get {
		return
	}
	lo, hi := d.Span()
	off, size := lo, hi-lo
	if d.Shape == Runs {
		size = int64(d.Unit)
	}
	for i := range d.Msgs() {
		live := src
		if d.Shape == Runs {
			off = d.Off + d.Offs[i]
			if src != nil {
				live = src[i*d.Unit : (i+1)*d.Unit]
			}
		}
		switch {
		case size <= 0:
		case d.Get:
			s.checkRead(origin, d.Target, off, size)
		default:
			s.mu.Lock()
			s.pending[origin] = append(s.pending[origin], sanPut{target: d.Target, off: off, size: size, set: set, live: live, snap: bytes.Clone(live)})
			s.mu.Unlock()
		}
	}
}

// checkRead flags reads overlapping any outstanding put — including the
// reader's own: a PE reading back its un-quieted put races it too.
func (s *sanitizer) checkRead(reader, target int, off, size int64) {
	if size <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for origin, puts := range s.pending {
		for _, p := range puts {
			if p.target == target && off < p.off+p.size && p.off < off+size {
				s.report("race", reader, "get of [%d,%d) on PE %d races the un-quieted put of [%d,%d) issued by PE %d; complete it with Quiet/Fence/Barrier first",
					off, off+size, target, p.off, p.off+p.size, origin)
			}
		}
	}
}

func (s *sanitizer) checkHandle(p *PE, op string, off, size int64) {
	if off == 0 && size == MaxSegmentBytes || p.world.heap.holds(off, size) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.report("bad-handle", p.ID, "%s through handle {Off: %d, Size: %d}, which lies inside no live symmetric allocation of this world; handles come from a collective Malloc and stay valid until its Free",
		op, off, size)
}

// discharge completes the origin's puts on set (toward target only, unless it
// is negative). Nonblocking ones verify their source-buffer contract on the
// way out: a buffer that changed between issue and this drain was reused while
// the NIC could still be reading it.
func (s *sanitizer) discharge(origin int, set *fabric.NBIStreams, target int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.pending[origin][:0]
	for _, p := range s.pending[origin] {
		if p.set != set || target >= 0 && p.target != target {
			kept = append(kept, p)
			continue
		}
		if !bytes.Equal(p.live, p.snap) {
			s.report("nbi-src-reuse", origin, "source buffer of the nonblocking put to [%d,%d) on PE %d was modified before its completion; the NIC may still be streaming it — reuse the buffer only after Quiet returns",
				p.off, p.off+p.size, p.target)
		}
	}
	s.pending[origin] = kept
}

// noteLock moves the PE's acquire depth of the lock by delta (+1 acquired, -1
// released); an acquisition that waited orders every other lock the PE holds
// before this one.
func (s *sanitizer) noteLock(pe int, kind string, off int64, idx, delta int, waited bool) {
	name := fmt.Sprintf("%s@%d[%d]", kind, off, idx)
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.held[pe]
	if m == nil {
		m = map[string]int{}
		s.held[pe] = m
	}
	for a := range m {
		if waited && a != name {
			if s.order[a] == nil {
				s.order[a] = map[string]int{}
			}
			if _, ok := s.order[a][name]; !ok {
				s.order[a][name] = pe
			}
		}
	}
	if m[name] += delta; m[name] <= 0 {
		delete(m, name)
	}
}

// report records one finding. Must hold s.mu.
func (s *sanitizer) report(kind string, pe int, format string, args ...any) {
	s.violations = append(s.violations, Violation{Kind: kind, PE: pe, Msg: fmt.Sprintf(format, args...)})
}

// finalize runs the end-of-job checks and folds every violation of the job
// into one error, nil when it is clean.
func (s *sanitizer) finalize(w *World) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !w.AnyFailed() {
		// Nonblocking puts never completed: the program exited with puts still
		// in flight, which have no defined completion point at all.
		for _, origin := range sortedKeys(s.pending) {
			n := 0
			for _, p := range s.pending[origin] {
				if p.live != nil {
					n++
				}
			}
			if n > 0 {
				s.report("nbi-leak", origin, "%d nonblocking op(s) still in flight at image exit; complete them with Quiet", n)
			}
		}
		w.heap.mu.Lock()
		for _, a := range w.heap.live {
			if !a.internal {
				s.report("leak", -1, "symmetric allocation of %d bytes at offset %d was never freed", a.size, a.off)
			}
		}
		w.heap.mu.Unlock()
		for _, c := range s.lockCycles() {
			s.report("lock-order", s.order[c[len(c)-1]][c[0]], "locks taken in a cyclic order: %s → %s; PEs each holding one while waiting for the next deadlock",
				strings.Join(c, " → "), c[0])
		}
	}
	// Locks still held at image exit, by normally-exited PEs only.
	for _, pe := range sortedKeys(s.held) {
		if w.Failed(pe) {
			continue
		}
		for _, name := range sortedKeys(s.held[pe]) {
			s.report("lock-held", pe, "lock %s still held at image exit (acquired %d time(s) without release); no other image can ever acquire it", name, s.held[pe][name])
		}
	}
	if len(s.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "pgas: sanitizer found %d violation(s):", len(s.violations))
	for _, v := range s.violations {
		b.WriteString("\n\t")
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}

// lockCycles returns one cycle of the lock-order graph per closing edge the
// depth-first walk meets, each once, as its locks starting from the least.
func (s *sanitizer) lockCycles() [][]string {
	var cycles [][]string
	seen := map[string]bool{}
	state := map[string]int{} // 1: on the walk's stack, 2: done
	var stack []string
	var visit func(a string)
	visit = func(a string) {
		state[a] = 1
		stack = append(stack, a)
		for _, b := range sortedKeys(s.order[a]) {
			switch state[b] {
			case 0:
				visit(b)
			case 1:
				c := slices.Clone(stack[slices.Index(stack, b):])
				least := slices.Index(c, slices.Min(c))
				c = slices.Concat(c[least:], c[:least])
				if key := strings.Join(c, " "); !seen[key] {
					seen[key] = true
					cycles = append(cycles, c)
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[a] = 2
	}
	for _, a := range sortedKeys(s.order) {
		if state[a] == 0 {
			visit(a)
		}
	}
	return cycles
}

func sortedKeys[K int | int64 | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
