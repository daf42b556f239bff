package pgas

import "math"

// Test hooks for the page life cycle: the worst a recycled page can hold is
// 0xFF in every byte of a segment page and +Inf in every word of a timestamp
// page (the index max-merges, so +Inf would stick).

func dirtySegPage(pg []byte) {
	for i := range pg {
		pg[i] = 0xFF
	}
}

func dirtyTsPage(pg []float64) {
	for i := range pg {
		pg[i] = math.Inf(1)
	}
}

// PreloadDirtyPages puts nSeg segment pages and nTs timestamp pages, all
// dirty, into the page pools, so the next pages handed out are recycled ones.
func PreloadDirtyPages(nSeg, nTs int) {
	for i := 0; i < nSeg; i++ {
		pg := new([segPageSize]byte)
		dirtySegPage(pg[:])
		segPagePool.Put(pg)
	}
	for i := 0; i < nTs; i++ {
		pg := new([tsPageWords]float64)
		dirtyTsPage(pg[:])
		tsPagePool.Put(pg)
	}
}

// Scribble dirties every page the world has materialised, so that Close
// recycles memory that no longer holds anything the world wrote.
func (w *World) Scribble() {
	for _, p := range w.pes {
		p.mu.Lock()
		for _, pg := range p.seg.pages {
			if pg != nil {
				dirtySegPage(pg[:])
			}
		}
		for _, pg := range p.ts.pages {
			dirtyTsPage(pg)
		}
		p.mu.Unlock()
	}
}
