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

// Test hooks for the page life cycle: the worst a recycled page can hold is
// 0xFF in every byte its last owner dirtied and +Inf in every word of four
// stale timestamp blocks (the index max-merges, so +Inf would stick). Both
// pools are poisoned: a record's blocks and its bytes go back separately.

// scribble poisons pg's bytes over [lo, hi), giving it bytes dirty over just
// that range if it has none, and every word of four timestamp blocks.
func (pg *segPage) scribble(lo, hi int64) {
	d := pg.data
	if d == nil {
		d = &segBytes{buf: new([segPageSize]byte), lo: lo, hi: hi}
		pg.data = d
	}
	for i := range d.buf[lo:hi] {
		d.buf[lo+int64(i)] = 0xFF
	}
	d.lo, d.hi = min(d.lo, lo), max(d.hi, hi)
	for g := range pg.ts {
		if pg.ts[g] == nil {
			pg.ts[g] = new(tsBlock)
		}
		for i := range pg.ts[g] {
			pg.ts[g][i] = math.Inf(1)
		}
	}
}

// PreloadDirtyPages puts n page records into the record pool and n byte
// arrays, whose last owner dirtied the in-page range [lo, hi), into the bytes
// pool, so the next pages handed out are recycled ones.
func PreloadDirtyPages(n int, lo, hi int64) {
	for i := 0; i < n; i++ {
		pg := new(segPage)
		pg.scribble(lo, hi)
		segBytesPool.Put(pg.data)
		pg.data = nil
		segPagePool.Put(pg)
	}
}

// Scribble dirties every page the world has materialised, bytes and all: a
// record without bytes is given some, so that Close recycles into both pools
// memory that no longer holds anything the world wrote.
func (w *World) Scribble() {
	for i := range w.pes {
		p := &w.pes[i]
		p.mu.Lock()
		for _, pg := range p.seg.pages {
			if pg != nil {
				pg.scribble(0, segPageSize)
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
