package pgas_test

import (
	"sync/atomic"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/dht"
	"cafshmem/internal/fabric"
	"cafshmem/internal/himeno"
	"cafshmem/internal/pgas"
)

// TestClosedWorldLeavesNoTrace is the end-to-end form of the fuzz targets'
// claim that recycled memory is indistinguishable from new. A world of the
// golden runs' shape writes bulk payloads and flag words all over its
// partitions, every page it materialised is then overwritten with the worst
// a page can hold (0xFF bytes, +Inf timestamps, packed and dense) and the
// world is closed — so the free lists hold nothing but poison on top — and
// the Himeno and DHT jobs that follow must reproduce their pinned goldens
// (internal/himeno/golden_test.go, internal/dht/dht_test.go) bit for bit and
// conserve the DHT's grand total, while their page counters show that they
// did run on recycled records, bytes and packed records. Afterwards the zero
// source must still read zero.
func TestClosedWorldLeavesNoTrace(t *testing.T) {
	const images = 8
	hopts := caf.UHCAFOverMV2XSHMEM()
	hopts.Strided = caf.StridedNaive
	prm := himeno.Params{NX: 16, NY: 64, NZ: 12, Iters: 3}
	poison := func() {
		w, err := pgas.NewWorld(fabric.Stampede(), images)
		if err != nil {
			t.Fatal(err)
		}
		bulk := make([]byte, 2<<20)
		err = w.Run(func(p *pgas.PE) {
			right := (p.ID + 1) % images
			w.Write(right, 0, bulk, 1)
			for off := int64(0); off < int64(len(bulk)); off += 4096 {
				w.WriteUint64(right, off, uint64(off)+1, 2) // one timestamp page each
			}
			p.Barrier(0, pgas.Call{Op: "Barrier"})
		})
		if err != nil {
			t.Fatal(err)
		}
		w.Scribble()
		w.Close()
	}

	poison()
	res, err := himeno.Run(hopts, images, prm)
	if err != nil {
		t.Fatalf("himeno: %v", err)
	}
	if res.TimeMs != 0.12599072727272725 || res.Gosa != 0.055324603606416084 {
		t.Errorf("himeno over poisoned pages = (%v ms, gosa %v), want golden (0.12599072727272725, 0.055324603606416084)",
			res.TimeMs, res.Gosa)
	}
	if !recycledAll(res.Pages) {
		t.Errorf("himeno used no recycled page record, bytes or packed record (%+v): the test did not test anything", res.Pages)
	}

	poison()
	d := caf.UHCAFOverMV2XSHMEM()
	r, err := dht.BenchPattern(d, 4, 64, 50, true)
	if err != nil {
		t.Fatalf("dht: %v", err)
	}
	if r.TimeMs != 0.28665636363636365 {
		t.Errorf("dht over poisoned pages: TimeMs = %v, want golden 0.28665636363636365", r.TimeMs)
	}
	if !recycledAll(r.Pages) {
		t.Errorf("dht used no recycled page record, bytes or packed record (%+v): the test did not test anything", r.Pages)
	}

	// The timing golden does not read the table back; a contended run
	// whose grand total must equal its update count does. The table
	// trusts freshly allocated coarrays to be zero.
	poison()
	const per = 40
	var grand int64
	err = caf.Run(images, d, func(img *caf.Image) {
		tab := dht.New(img, 32)
		for i := 0; i < per; i++ {
			if err := tab.Update(uint64(i*img.ThisImage())%8, 1); err != nil {
				panic(err)
			}
		}
		img.SyncAll()
		atomic.AddInt64(&grand, tab.LocalSum())
		img.SyncAll()
	})
	if err != nil {
		t.Fatalf("contended dht: %v", err)
	}
	if grand != images*per {
		t.Errorf("contended dht over poisoned pages: grand total %d, want %d", grand, images*per)
	}
	if !pgas.ZeroSourceReadsZero(4 << 20) {
		t.Error("the zero source no longer reads zero")
	}
}

// recycledAll reports whether a job took a page record, a page's bytes and a
// packed timestamp record from the free lists rather than from new memory.
func recycledAll(s pgas.PageStats) bool {
	return s.RecycledSegPages > 0 && s.RecycledDataPages > 0 && s.RecycledPackedRecords > 0
}
