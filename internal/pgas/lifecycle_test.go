package pgas

import (
	"errors"
	"runtime"
	"testing"

	"cafshmem/internal/fabric"
)

// Tests of the partition-memory life cycle (World.Close, the page pools).

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
	if after := w.PageStats(); after != before || after.SegPages != 2 {
		t.Errorf("PageStats after Close = %+v, before %+v (want 2 segment pages, unchanged)", after, before)
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
// every partition, closes it, and returns what the traffic and the Close
// allocated (bytes, and the world's page counters). World construction is
// outside the measurement.
func churnWorld(t *testing.T, payload []byte) (uint64, PageStats) {
	w, err := NewWorld(fabric.Stampede(), 32)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w.Write(0, 0, payload, 1)
	for i := 0; i < 256; i++ {
		w.WriteUint64(i%32, int64(i/32)*tsBlockBytes, uint64(i)+1, 2)
	}
	w.Close()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, w.PageStats()
}

// TestWorldChurnAllocBytes is the gate on what this life cycle buys: once two
// worlds have come and gone, twenty more of the same shape materialise their
// segment pages (the 1 MiB put's, and on each of the 31 other partitions those
// its eight flags fall in) and 256 timestamp pages each from recycled memory — under one
// segment page of new memory over all twenty, where every world used to cost
// megabytes — and the traffic allocates nothing but page tables.
func TestWorldChurnAllocBytes(t *testing.T) {
	const flagPages = (8*tsBlockBytes + segPageSize - 1) / segPageSize
	if RaceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what is put into it, and this test counts the pages it hands out")
	}
	// No collection: the runtime empties a sync.Pool over two of them, which
	// would turn recycled pages into fresh ones.
	defer PauseGC()()
	// One P: a sync.Pool keeps one item per P where no other P can reach it,
	// so a goroutine that migrates between Close and the next world's writes
	// would miss a page or two, and this test counts them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i) | 1
	}
	churnWorld(t, payload)
	churnWorld(t, payload)
	// PE 0's flags fall inside the payload's pages; every other partition
	// materialises the pages under its eight flags, one timestamp page apart.
	segPages := len(payload)/int(segPageSize) + 31*int(flagPages)
	var bytes uint64
	var pages PageStats
	for i := 0; i < 20; i++ {
		b, s := churnWorld(t, payload)
		bytes += b
		if s.SegPages != segPages || s.TsPages != 256 {
			t.Fatalf("world %d materialised %d segment and %d timestamp pages, want %d and 256", i, s.SegPages, s.TsPages, segPages)
		}
		pages.FreshBytes += s.FreshBytes
		pages.ClearedBytes += s.ClearedBytes
	}
	if pages.FreshBytes >= segPageSize {
		t.Errorf("20 worlds took %d KiB of new page memory, want < %d KiB (each materialises %d KiB)",
			pages.FreshBytes>>10, segPageSize>>10, (int64(segPages)*segPageSize+256*tsBlockBytes)>>10)
	}
	// The 1 MiB put covers its pages exactly, so only the 31 other
	// partitions' flag pages and the timestamp pages are cleared.
	if perWorld := pages.ClearedBytes / 20; perWorld > 31*flagPages*segPageSize+256*tsBlockBytes {
		t.Errorf("cleared %d KiB per world on hand-out, want at most %d KiB: the bulk put's pages must not be cleared",
			perWorld>>10, (31*flagPages*segPageSize+256*tsBlockBytes)>>10)
	}
	// What is left is the partitions' page tables (a few hundred bytes per PE
	// that was written to): well under 1 MiB for all twenty worlds.
	if bytes >= 1<<20 {
		t.Errorf("traffic and Close of 20 worlds allocated %d KiB, want < 1024 KiB", bytes>>10)
	}
	t.Logf("20 worlds: %d KiB allocated, %d KiB of it page memory, %d KiB cleared on hand-out", bytes>>10, pages.FreshBytes>>10, pages.ClearedBytes>>10)
}
