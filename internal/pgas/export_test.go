package pgas

import (
	"math"

	"cafshmem/internal/fabric"
)

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

// poisonBytes gives d, new if nil, 0xFF over [lo, hi) and zeros elsewhere,
// as if its last owner had dirtied just that range.
func poisonBytes(d *segBytes, lo, hi int64) *segBytes {
	if d == nil {
		d = &segBytes{buf: new([segPageSize]byte)}
	}
	clear(d.buf[d.lo:d.hi])
	for i := range d.buf[lo:hi] {
		d.buf[lo+int64(i)] = 0xFF
	}
	d.lo, d.hi = lo, hi
	return d
}

// preload makes the next n items l hands out poisoned ones: it poisons the n
// on top of the list, adding new ones where it holds fewer, so that however
// often a test preloads, the list never holds more than it did or n.
func preload[T any](l *freeList[T], n int, poison func(*T) *T) {
	xs := make([]*T, n)
	for i := range xs {
		xs[i] = poison(l.get())
	}
	for i := range xs {
		l.put(xs[n-1-i])
	}
}

// PreloadDirtyPages makes the next n page records, byte arrays (whose last
// owner dirtied the in-page range [lo, hi)), packed records and dense blocks
// handed out recycled ones, the last three poisoned.
func PreloadDirtyPages(n int, lo, hi int64) {
	preload(&segRecordFree, n, func(pg *segPage) *segPage {
		if pg == nil {
			pg = new(segPage)
		}
		return pg
	})
	preload(&segBytesFree, n, func(d *segBytes) *segBytes { return poisonBytes(d, lo, hi) })
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

// Scribble poisons every page the world has materialised, in every part: a
// record without bytes is given some, and each granule both a packed record
// and a dense block, so that Close recycles into every free list memory that
// no longer holds anything the world wrote. Close the world next: until then
// its granules hold both layouts.
func (w *World) Scribble() {
	for i := range w.pes {
		p := &w.pes[i]
		p.mu.Lock()
		for _, pg := range p.seg.pages {
			if pg == nil {
				continue
			}
			pg.data = poisonBytes(pg.data, 0, segPageSize)
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
