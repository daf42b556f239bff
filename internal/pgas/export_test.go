package pgas

import (
	"math"
	"runtime"

	"cafshmem/internal/fabric"
)

// NewWorld creates a world of n PEs on the given machine model.
func NewWorld(machine *fabric.Machine, n int) (*World, error) {
	return NewWorldOpts(machine, n, Options{})
}

// Run executes body once per PE, each on a runner goroutine of its own (see
// World.Run), and blocks until every PE returns. A panic in any PE poisons
// the world (waking all blocked PEs) and is reported as an error. The world
// is closed before Run returns.
func Run(machine *fabric.Machine, n int, body func(*PE)) error {
	w, err := NewWorld(machine, n)
	if err != nil {
		return err
	}
	defer w.Close()
	return w.Run(body)
}

// PE returns the processing element with the given rank.
func (w *World) PE(id int) *PE { return &w.pes[id] }

// WaitUntilStat is WaitUntil with WaitWordStat's fault awareness, over any
// predicate on the n bytes at off.
func (p *PE) WaitUntilStat(off, n int64, pred func([]byte) bool, onEvent func() error) (float64, error) {
	return p.wait(p, off, n, pred, onEvent)
}

// newWorldShards is NewWorldOpts with the world barrier split into shards
// leaf shards (0: the automatic layout): the layouts the barrier and
// determinism tests vary, which no other code chooses.
func newWorldShards(m *fabric.Machine, n int, opts Options, shards int) (*World, error) {
	w, err := NewWorldOpts(m, n, opts)
	if err == nil {
		w.barrier = newBarrier(w, n, shards)
		for i := range w.pes {
			w.barrier.arena[i].p = &w.pes[i]
		}
	}
	return w, err
}

// LockedPartitions returns the PEs whose partition lock is held: what an
// access that panicked under the lock leaves behind.
func (w *World) LockedPartitions() (held []int) {
	for i := range w.pes {
		if !w.pes[i].mu.TryLock() {
			held = append(held, i)
		} else {
			w.pes[i].mu.Unlock()
		}
	}
	return held
}

// breakPage gives page 0 of target's partition, which must have none, a 4 KiB
// window whose dirty range claims 8 KiB, as a bug in the store could leave it:
// a store of zeros to the page past the window then clears past the buffer
// and panics under the partition lock. mend takes the page away again, so
// that Close does not hand the window to the next world.
func (w *World) breakPage(target int) (mend func()) {
	s := &w.pes[target].seg
	s.pages = []*segPage{{data: &segBytes{buf: make([]byte, segWindowSize), hi: 2 * segWindowSize}}}
	return func() { s.pages = nil }
}

// waitPanicking waits on the word at off of target's partition with a
// predicate that panics, under target's partition lock: a remote wait's
// predicate runs under the lock it reads, a local one's under the PE's own.
func (p *PE) waitPanicking(target int, off int64) {
	_, _ = p.wait(p.world.part(target), off, 8, func([]byte) bool { panic("predicate panicked") }, nil)
}

// WakeVisits is how many partitions the world's wake fan-outs (departures,
// repair writes, unreachable-link marks, poison) have visited so far.
func (w *World) WakeVisits() int64 { return w.wakeVisits.Load() }

// Test hooks for the page life cycle: the worst a recycled part can hold is
// 0xFF in every byte its last owner dirtied, and +Inf in every stamp of a
// dense block and of a packed record whose mask claims a word in every eight
// (the index max-merges, so +Inf would stick). Every free list is poisoned:
// a page's parts go back to theirs separately.

// poisonPacked fills p with +Inf stamps of tsPackedCap words spread over its
// granule.
func poisonPacked(p *tsPacked) {
	for k := range p.mask {
		p.mask[k] = 0x0101010101010101
		p.below[k] = uint8(8 * k)
	}
	p.n = tsPackedCap
	for i := range p.ts {
		p.ts[i] = math.Inf(1)
	}
}

// poisonDense fills d with +Inf stamps.
func poisonDense(d *tsBlock) {
	for i := range d {
		d[i] = math.Inf(1)
	}
}

// poisonBytes gives d, a new buffer of size bytes if nil, 0xFF over [lo, hi)
// of its buffer (clipped to it) and zeros elsewhere, as if its last owner had
// dirtied just that range.
func poisonBytes(d *segBytes, size, lo, hi int64) *segBytes {
	if d == nil {
		d = &segBytes{buf: make([]byte, size)}
	}
	clear(d.buf[d.lo:d.hi])
	n := int64(len(d.buf))
	lo, hi = min(lo, n), min(hi, n)
	for i := range d.buf[lo:hi] {
		d.buf[lo+int64(i)] = 0xFF
	}
	d.lo, d.hi = lo, hi
	return d
}

// preload makes the next n items l hands out poisoned ones: it poisons the n
// on top of the list, adding new ones where it holds fewer, so that however
// often a test preloads, the list never holds more than it did or n.
func preload[T any](l *freeList[T], n int, poison func(T) T) {
	xs := make([]T, n)
	for i := range xs {
		xs[i] = poison(l.get())
	}
	for i := range xs {
		l.put(xs[n-1-i])
	}
}

// PreloadDirtyPages makes the next n page records, windows and full pages of
// bytes (whose last owner dirtied the range [lo, hi) of their buffer, clipped
// to a window's 4 KiB), packed records and dense blocks handed out recycled
// ones, all but the records poisoned.
func PreloadDirtyPages(n int, lo, hi int64) {
	preload(&segRecordFree, n, func(pg *segPage) *segPage {
		if pg == nil {
			pg = new(segPage)
		}
		return pg
	})
	preload(&segWindowFree, n, func(d *segBytes) *segBytes { return poisonBytes(d, segWindowSize, lo, hi) })
	preload(&segBytesFree, n, func(d *segBytes) *segBytes { return poisonBytes(d, segPageSize, lo, hi) })
	preload(&tsPackedFree, n, func(p *tsPacked) *tsPacked {
		if p == nil {
			p = new(tsPacked)
		}
		poisonPacked(p)
		return p
	})
	preload(&tsDenseFree, n, func(d *tsBlock) *tsBlock {
		if d == nil {
			d = new(tsBlock)
		}
		poisonDense(d)
		return d
	})
}

// Scribble poisons every page the world has materialised, in every part: the
// bytes of a page whole, whichever their layout, a record without bytes given
// a full page of them, and each granule both a packed record and a dense
// block; and as many windows on top of their free list as the world has
// records, since a page whose window widened gave it back as it was. So
// Close recycles into every free list memory that no longer holds anything
// the world wrote. Close the world next: until then its granules hold both
// layouts.
func (w *World) Scribble() {
	records := 0
	for i := range w.pes {
		p := &w.pes[i]
		p.mu.Lock()
		for _, pg := range p.seg.pages {
			if pg == nil {
				continue
			}
			records++
			pg.data = poisonBytes(pg.data, segPageSize, 0, segPageSize)
			for g := range segGranules {
				if pg.packed[g] == nil {
					pg.packed[g] = new(tsPacked)
				}
				if pg.dense[g] == nil {
					pg.dense[g] = new(tsBlock)
				}
				poisonPacked(pg.packed[g])
				poisonDense(pg.dense[g])
			}
		}
		p.mu.Unlock()
	}
	preload(&segWindowFree, records, func(d *segBytes) *segBytes { return poisonBytes(d, segWindowSize, 0, segWindowSize) })
}

// ZeroSourceReadsZero reports whether the first n bytes of the zero source
// (all of it for n beyond its length) still read zero: a caller that wrote
// through Zeros would make every store of zeros that was skipped read back
// what it wrote.
func ZeroSourceReadsZero(n int) bool {
	for _, b := range zeros[:min(n, len(zeros))] {
		if b != 0 {
			return false
		}
	}
	return true
}

// idleRunners is how many runners the process's stack holds idle.
func idleRunners() int {
	runners.mu.Lock()
	defer runners.mu.Unlock()
	return len(runners.idle)
}

// trimRunners ends idle runners until keep are left: each surplus one runs the
// PE of a 1-PE world of its own whose body ends in runtime.Goexit, the one way
// a runner ends.
func trimRunners(keep int) {
	runners.mu.Lock()
	surplus := append([]chan peRun(nil), runners.idle[min(keep, len(runners.idle)):]...)
	runners.idle = runners.idle[:min(keep, len(runners.idle))]
	runners.mu.Unlock()
	for _, ch := range surplus {
		w, _ := NewWorld(fabric.Stampede(), 1)
		w.awake.Store(1)
		w.runs.Add(1)
		ch <- peRun{&w.pes[0], func(*PE) { runtime.Goexit() }}
		w.runs.Wait()
	}
}
