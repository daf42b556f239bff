package pgas

import (
	"testing"

	"cafshmem/internal/fabric"
)

// Regression tests for segment growth behaviour (an early version
// reallocated on every length extension, making ascending writes O(n²)).

func TestEnsureLenExtendsWithinCapacityZeroed(t *testing.T) {
	w, err := NewWorld(fabric.Stampede(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// First write allocates capacity; later short extensions must expose
	// zeroed memory between writes.
	w.Write(0, 0, []byte{1}, 0)
	w.Write(0, 100, []byte{2}, 0)
	gap := make([]byte, 99)
	w.Read(0, 1, gap)
	for i, b := range gap {
		if b != 0 {
			t.Fatalf("unwritten byte %d reads %d, want 0", i+1, b)
		}
	}
}

func TestAscendingWritesLinear(t *testing.T) {
	// 64k ascending 8-byte writes should complete quickly; under the old
	// quadratic growth this took seconds.
	w, err := NewWorld(fabric.Stampede(), 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := int64(0); i < 65536; i++ {
		w.Write(0, i*8, buf, 0)
	}
	var out [8]byte
	w.Read(0, 65535*8, out[:])
	if out[7] != 8 {
		t.Fatal("last write lost")
	}
}

func TestInterleavedGrowthAcrossPEs(t *testing.T) {
	w, err := NewWorld(fabric.Stampede(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		for pe := 0; pe < 3; pe++ {
			w.WriteUint64(pe, i*64, uint64(pe*1000)+uint64(i), 0)
		}
	}
	for pe := 0; pe < 3; pe++ {
		for i := int64(0); i < 100; i++ {
			if got := w.ReadUint64(pe, i*64); got != uint64(pe*1000)+uint64(i) {
				t.Fatalf("pe %d word %d corrupted: %d", pe, i, got)
			}
		}
	}
}

// ZeroLocal leaves the bytes and per-word timestamps that StoreLocal of fresh
// zero bytes leaves, over stamped nonzero memory, for stores on either side of
// the timestamp-tracking limit and of the zero source's length.
func TestZeroLocalMatchesStoreLocal(t *testing.T) {
	for _, n := range []int64{8, tsTrackMaxBytes, tsTrackMaxBytes + 8, segPageSize, segPageSize + 8, 2*segPageSize + 24, int64(len(zeros)), int64(len(zeros)) + 24} {
		extent := max(3*segPageSize, n+40) + 64
		wz, ws := twoWorlds(t)
		for _, w := range []*World{wz, ws} {
			for off := int64(0); off < extent; off += 24 {
				w.WriteUint64(1, off, uint64(off)|1, float64(off%7))
			}
			if err := w.Run(func(p *PE) {
				if p.ID == 1 {
					p.Clock.Advance(100)
					if w == wz {
						p.ZeroLocal(40, n)
					} else {
						p.StoreLocal(40, make([]byte, n))
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		comparePartitions(t, wz, ws, 1, extent)
		wz.Close()
		ws.Close()
	}
}
