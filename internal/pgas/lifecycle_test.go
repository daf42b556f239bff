package pgas

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"cafshmem/internal/fabric"
)

// Tests of the partition-memory life cycle (World.Close, the free lists).

func mustPanicClosed(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if err, _ := recover().(error); !errors.Is(err, ErrClosed) {
			t.Errorf("%s on a closed world: recovered %v, want a panic with ErrClosed", what, err)
		}
	}()
	f()
}

// A closed world is loud about it: Run is refused with ErrClosed and every
// way into partition memory panics with it instead of reading zeros where the
// data used to be. Close is idempotent, and the counters outlive it.
func TestClosedWorldRefusesUse(t *testing.T) {
	w, err := NewWorld(fabric.CrayXC30(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(p *PE) {
		p.StoreLocal(8, []byte{1, 2, 3, 4, 5, 6, 7, 8})
		p.Barrier(0)
	}); err != nil {
		t.Fatal(err)
	}
	if got := w.ReadUint64(1, 8); got != 0x0807060504030201 {
		t.Fatalf("before Close: word = %#x", got)
	}
	before := w.PageStats()
	w.Close()
	w.Close()
	if after := w.PageStats(); after != before || after.SegPages != 2 || after.DataPages != 2 {
		t.Errorf("PageStats after Close = %+v, before %+v (want 2 page records with bytes, unchanged)", after, before)
	}
	if err := w.Run(func(*PE) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Run on a closed world: %v, want ErrClosed", err)
	}
	buf := make([]byte, 8)
	mustPanicClosed(t, "Read of written memory", func() { w.Read(1, 8, buf) })
	mustPanicClosed(t, "Read of never-written memory", func() { w.Read(0, 1<<20, buf) })
	mustPanicClosed(t, "Write", func() { w.Write(0, 8, buf, 0) })
	mustPanicClosed(t, "Touch", func() { w.Touch(0, 8, 0) })
	mustPanicClosed(t, "RMW64", func() { w.RMW64(0, 8, OpAdd, 1, 0) })
	mustPanicClosed(t, "WriteRuns", func() { w.WriteRuns(0, 0, []int64{0}, 8, buf, []float64{0}) })
	mustPanicClosed(t, "ReadRuns", func() { w.ReadRuns(0, 0, []int64{0}, 8, buf) })
	mustPanicClosed(t, "ReadUint64Ts", func() { w.ReadUint64Ts(0, 8) })
}

// Close while PE bodies run would pull pages from under them: it panics.
func TestCloseDuringRunPanics(t *testing.T) {
	w, err := NewWorld(fabric.CrayXC30(), 1)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *PE) {
		defer func() {
			if recover() == nil {
				t.Error("Close from inside a PE body did not panic")
			}
		}()
		w.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	w.WriteUint64(0, 0, 1, 0) // still open
	w.Close()
}

// churnWorld builds one 32-PE world, lands a 1 MiB put on PE 0 and 256
// flag-sized writes on 256 distinct timestamp pages, eight at the bottom of
// every partition — the four on each partition's first page store zero, the
// four on its second a non-zero word — closes it, and returns what the
// traffic and the Close allocated (bytes, and the world's page counters).
// World construction is outside the measurement.
func churnWorld(t *testing.T, payload []byte) (uint64, PageStats) {
	w, err := NewWorld(fabric.Stampede(), 32)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.Write(0, 0, payload, 1)
	for i := 0; i < 256; i++ {
		v := uint64(0)
		if i/32 >= 4 {
			v = uint64(i)
		}
		w.WriteUint64(i%32, int64(i/32)*tsBlockBytes, v, 2)
	}
	w.Close()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, w.PageStats()
}

// TestWorldChurnAllocBytes is the gate on what this life cycle buys: once two
// worlds have come and gone, twenty more of the same shape materialise their
// page records (the 1 MiB put's, and on each of the other partitions the two
// its eight flags fall in), the bytes of the pages that hold a non-zero byte
// and 256 packed timestamp records each from recycled memory — under one
// segment page of new memory over all twenty, where every world used to cost
// megabytes — and the traffic allocates nothing: the partitions' page tables
// are recycled too. A collection
// runs between every two worlds: the free lists keep what it would have
// emptied from a pool. A payload of zeros materialises nothing, and a page
// whose flags store zero has a record but no bytes. The non-zero flags fall
// in four granules of their page: the first takes a window, the second widens
// it, so no page ends a world as a window.
func TestWorldChurnAllocBytes(t *testing.T) {
	const flagPages = (8*tsBlockBytes + segPageSize - 1) / segPageSize
	ones := make([]byte, 1<<20)
	for i := range ones {
		ones[i] = byte(i) | 1
	}
	for _, c := range []struct {
		name    string
		payload []byte
		// The pages the payload materialises on PE 0, whose flags fall
		// inside them; the 31 other partitions, or all 32 for a payload of
		// zeros, materialise two records under their flags and the bytes of
		// the second.
		payloadPages, flagged int
	}{
		{"non-zero", ones, len(ones) / int(segPageSize), 31},
		{"zeros", Zeros(1 << 20), 0, 32},
	} {
		t.Run(c.name, func(t *testing.T) {
			churnWorld(t, c.payload)
			churnWorld(t, c.payload)
			segPages := c.payloadPages + c.flagged*int(flagPages)
			dataPages := c.payloadPages + c.flagged
			var bytes uint64
			var pages PageStats
			for i := 0; i < 20; i++ {
				runtime.GC()
				b, s := churnWorld(t, c.payload)
				bytes += b
				if s.SegPages != segPages || s.DataPages != dataPages || s.WindowPages != 0 || s.PackedRecords != 256 || s.TsPages != 0 {
					t.Fatalf("world %d materialised %d page records, %d with bytes (%d windows), %d packed timestamp records and %d dense ones, want %d, %d (0), 256 and 0",
						i, s.SegPages, s.DataPages, s.WindowPages, s.PackedRecords, s.TsPages, segPages, dataPages)
				}
				if s.FreshTables != 0 || s.RecycledTables == 0 {
					t.Fatalf("world %d took %d page tables new and %d recycled, want none new", i, s.FreshTables, s.RecycledTables)
				}
				pages.FreshBytes += s.FreshBytes
				pages.ClearedBytes += s.ClearedBytes
			}
			if pages.FreshBytes >= segPageSize {
				t.Errorf("20 worlds took %d KiB of new page memory, want < %d KiB (each materialises %d KiB)",
					pages.FreshBytes>>10, segPageSize>>10, (int64(dataPages)*segPageSize+256*tsPackedBytes)>>10)
			}
			// A non-zero payload covers its pages exactly, so only the bytes
			// of the flagged pages and the packed records' indexes are cleared.
			if perWorld := pages.ClearedBytes / 20; perWorld > int64(c.flagged)*segPageSize+256*tsPackedIndexBytes {
				t.Errorf("cleared %d KiB per world on hand-out, want at most %d KiB: the bulk put's pages must not be cleared",
					perWorld>>10, (int64(c.flagged)*segPageSize+256*tsPackedIndexBytes)>>10)
			}
			// Nothing is left but a free list's own growth, if any.
			if bytes >= 64<<10 {
				t.Errorf("traffic and Close of 20 worlds allocated %d KiB, want < 64 KiB", bytes>>10)
			}
			t.Logf("20 worlds: %d KiB allocated, %d KiB of it page memory, %d KiB cleared on hand-out", bytes>>10, pages.FreshBytes>>10, pages.ClearedBytes>>10)
		})
	}
}

// A page table goes back to its free list with every entry nil, so a world
// that takes it maps nothing of the world that gave it back. World A stores on
// page 0 and past the 1 MiB non-symmetric area on each partition (an 8-entry
// table, then a 128-entry one) and closes; world B, of A's size and then of a
// smaller one, stores on two other pages of the same tables — the records it
// takes are A's — and reads zero at every offset A wrote. A stale entry would
// alias one of B's pages there. B's tables are all recycled: A gave back an
// 8- and a 128-entry table per partition.
func TestRecycledPageTablesReadZero(t *testing.T) {
	if segTableMin<<(segTableClasses-1) != MaxSegmentBytes>>segPageShift {
		t.Fatalf("the longest of %d table lengths is %d entries, want the %d that span MaxSegmentBytes",
			segTableClasses, segTableMin<<(segTableClasses-1), MaxSegmentBytes>>segPageShift)
	}
	const pes = 4
	const far = 1<<20 + 9280
	written := []int64{64, far}
	stored := []int64{segPageSize + 64, far + segPageSize}
	// Every PE stores on its own partition at once, so the PEs take and give
	// back tables concurrently.
	store := func(t *testing.T, w *World, offs []int64) {
		if err := w.Run(func(p *PE) {
			for _, off := range offs {
				w.WriteUint64(p.ID, off, 0xA5A5A5A5A5A5A5A5, 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{pes, 2} {
		t.Run(fmt.Sprintf("B of %d PEs", n), func(t *testing.T) {
			a, err := NewWorld(fabric.Stampede(), pes)
			if err != nil {
				t.Fatal(err)
			}
			store(t, a, written)
			a.Close()
			if s := a.PageStats(); s.FreshTables+s.RecycledTables != 2*pes {
				t.Fatalf("A took %d page tables (%d recycled), want %d: an 8- and a 128-entry one per partition",
					s.FreshTables+s.RecycledTables, s.RecycledTables, 2*pes)
			}
			b, err := NewWorld(fabric.Stampede(), n)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			store(t, b, stored)
			for pe := range n {
				for _, off := range written {
					expectZero(t, b, pe, off, 8)
				}
			}
			if s := b.PageStats(); s.RecycledTables != 2*n || s.FreshTables != 0 {
				t.Errorf("B took %d page tables new and %d recycled, want 0 and %d", s.FreshTables, s.RecycledTables, 2*n)
			}
		})
	}
}
