package pgas

import "math"

// WakeVisits is how many partitions the world's wake fan-outs (departures,
// repair writes, unreachable-link marks, poison) have visited so far.
func (w *World) WakeVisits() int64 { return w.wakeVisits.Load() }

// Test hooks for the page life cycle: the worst a recycled page can hold is
// 0xFF in every byte its last owner dirtied and +Inf in every word of four
// stale timestamp blocks (the index max-merges, so +Inf would stick).

func (pg *segPage) scribble(lo, hi int64) {
	for i := range pg.data[lo:hi] {
		pg.data[lo+int64(i)] = 0xFF
	}
	pg.dirty(lo, hi)
	for g := range pg.ts {
		if pg.ts[g] == nil {
			pg.ts[g] = new(tsBlock)
		}
		for i := range pg.ts[g] {
			pg.ts[g][i] = math.Inf(1)
		}
	}
}

// PreloadDirtyPages puts n pages into the page pool whose last owner dirtied
// the in-page range [lo, hi), so the next pages handed out are recycled ones.
func PreloadDirtyPages(n int, lo, hi int64) {
	for i := 0; i < n; i++ {
		pg := &segPage{data: new([segPageSize]byte), lo: lo, hi: hi}
		pg.scribble(lo, hi)
		segPagePool.Put(pg)
	}
}

// Scribble dirties every page the world has materialised, so that Close
// recycles memory that no longer holds anything the world wrote.
func (w *World) Scribble() {
	for _, p := range w.pes {
		p.mu.Lock()
		for _, pg := range p.seg.pages {
			if pg != nil {
				pg.scribble(0, segPageSize)
			}
		}
		p.mu.Unlock()
	}
}
