package caf

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestTracerRecordsOperations(t *testing.T) {
	trc := NewTracer()
	o := shmemOpts()
	o.Tracer = trc
	err := Run(2, o, func(img *Image) {
		c := Allocate[int64](img, 8)
		if img.ThisImage() == 1 {
			c.PutElem(2, 7, 0)
			_ = c.GetElem(2, 0)
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string]int{}
	for _, ev := range trc.Events() {
		byOp[ev.Op]++
		if ev.End < ev.Start {
			t.Fatalf("event ends before it starts: %+v", ev)
		}
		if ev.Image < 1 || ev.Image > 2 {
			t.Fatalf("bad image in event: %+v", ev)
		}
	}
	if byOp["put"] < 1 {
		t.Fatalf("expected at least one put event, got %v", byOp)
	}
	if byOp["get"] < 1 {
		t.Fatalf("expected at least one get event, got %v", byOp)
	}
	if byOp["barrier"] < 2 {
		t.Fatalf("expected barrier events from SyncAll, got %v", byOp)
	}
	if byOp["quiet"] < 1 {
		t.Fatalf("expected quiet events (§IV-B rule), got %v", byOp)
	}
}

func TestTracerSummaryAndCSV(t *testing.T) {
	trc := NewTracer()
	o := shmemOpts()
	o.Tracer = trc
	err := Run(3, o, func(img *Image) {
		a := NewAtomicVar(img)
		a.Add(1, 1)
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := trc.Summary()
	if len(sum) == 0 {
		t.Fatal("empty summary")
	}
	foundAmo := false
	for _, s := range sum {
		if s.Op == "amo" {
			foundAmo = true
			if s.Count != 3 || s.Bytes != 24 {
				t.Fatalf("amo summary wrong: %+v", s)
			}
		}
	}
	if !foundAmo {
		t.Fatal("amo missing from summary")
	}

	var sb strings.Builder
	if err := trc.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	csv := sb.String()
	if !strings.HasPrefix(csv, "image,op,target,bytes,start_ns,end_ns\n") {
		t.Fatal("CSV header missing")
	}
	if strings.Count(csv, "\n") != len(trc.Events())+1 {
		t.Fatal("CSV row count mismatch")
	}

	trc.Reset()
	if len(trc.Events()) != 0 {
		t.Fatal("Reset did not clear events")
	}
}

// The tracer is shared by every image's goroutine while an observer may be
// snapshotting, summarising, or resetting it — all four entry points must be
// safe together. Run under -race this is the proof; without -race it still
// exercises snapshot consistency (a snapshot never contains a torn event).
func TestTracerConcurrentRecordAndSnapshot(t *testing.T) {
	trc := NewTracer()
	o := shmemOpts()
	o.Tracer = trc

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			for _, ev := range trc.Events() {
				if ev.Image < 1 || ev.End < ev.Start {
					panic(fmt.Sprintf("torn event in snapshot: %+v", ev))
				}
			}
			trc.Summary()
			if i%8 == 7 {
				trc.Reset()
			}
		}
	}()

	err := Run(4, o, func(img *Image) {
		c := Allocate[int64](img, 4)
		right := img.ThisImage()%img.NumImages() + 1
		for i := 0; i < 50; i++ {
			c.PutElem(right, int64(i), 0)
			_ = c.GetElem(right, 0)
		}
		img.SyncAll()
		c.Deallocate()
	})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// The tracer remains usable after the concurrent churn.
	trc.Reset()
	if len(trc.Events()) != 0 || len(trc.Summary()) != 0 {
		t.Fatal("Reset after concurrent use did not clear the tracer")
	}
}

func TestTracerWithLocksAndDirect(t *testing.T) {
	trc := NewTracer()
	o := shmemOpts()
	o.Tracer = trc
	o.IntraNodeDirect = true
	err := Run(2, o, func(img *Image) {
		lck := NewLock(img)
		lck.Acquire(1)
		lck.Release(1)
		c := Allocate[int64](img, 2)
		c.PutElem(2, 5, 0) // same node: direct
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
	byOp := map[string]int{}
	for _, ev := range trc.Events() {
		byOp[ev.Op]++
	}
	if byOp["amo"] < 2 {
		t.Fatalf("lock traffic should record amo events, got %v", byOp)
	}
	if byOp["direct-put"] != 2 {
		t.Fatalf("expected 2 direct-put events, got %v", byOp)
	}
	// The hybrid handle still resolves with a tracer installed.
	err = Run(1, o, func(img *Image) {
		if img.SHMEM() == nil {
			panic("SHMEM must resolve with tracing on")
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// A STAT form records the kinds of its plain twin, as many of each: one
	// kind per operation. Only image 1 locks, so no count depends on host order.
	kinds := func(stat bool) map[string]int {
		trc := NewTracer()
		o := shmemOpts()
		o.Tracer = trc
		if err := Run(2, o, func(img *Image) {
			lck, sig := NewLock(img), NewSignal(img)
			other := 3 - img.ThisImage()
			sig.Notify(other)
			if stat {
				if img.ThisImage() == 1 {
					lck.AcquireStat(2)
					lck.ReleaseStat(2)
				}
				sig.WaitStat(other)
				img.SyncImagesStat(other)
				img.SyncAllStat()
			} else {
				if img.ThisImage() == 1 {
					lck.Acquire(2)
					lck.Release(2)
				}
				sig.Wait(other)
				img.SyncImages(other)
				img.SyncAll()
			}
		}); err != nil {
			t.Fatal(err)
		}
		byOp := map[string]int{}
		for _, ev := range trc.Events() {
			byOp[ev.Op]++
		}
		return byOp
	}
	if plain, stat := kinds(false), kinds(true); !reflect.DeepEqual(plain, stat) {
		t.Errorf("STAT forms recorded %v, their plain twins %v", stat, plain)
	}
}

// Two runs of one program must write byte-identical CSV: every image's
// start-up barrier starts at the same virtual time, so ordering by start time
// alone left those rows in the order the host happened to schedule the
// images. The program has no contended locks, so its virtual times are
// deterministic.
func TestTracerCSVDeterministic(t *testing.T) {
	csv := func() string {
		trc := NewTracer()
		o := shmemOpts()
		o.Tracer = trc
		if err := Run(8, o, func(img *Image) {
			c := Allocate[int64](img, 4)
			a := NewAtomicVar(img)
			right := img.ThisImage()%img.NumImages() + 1
			for i := 0; i < 3; i++ {
				c.PutElem(right, int64(i), i)
				a.Add(1, 1)
				img.SyncAll()
			}
		}); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := trc.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	want := csv()
	for run := 1; run < 5; run++ {
		if got := csv(); got != want {
			t.Fatalf("run %d wrote a different CSV than run 0", run)
		}
	}
}

// The tracer hooks the op funnel, so it sees nonblocking puts, signals and
// per-image completion — and, where the transport lacks them, the blocking
// operations the funnel issued in their place.
func TestTracerSeesAsyncSignalSchedule(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want map[string]int // image 1's events of these kinds
	}{
		{"shmem", shmemOpts(), map[string]int{"put_nbi": 1, "put_signal_nbi": 1, "quiet_image": 1, "put": 0}},
		{"gasnet", gasnetOpts(), map[string]int{"put_nbi": 1, "put_signal_nbi": 1, "quiet_image": 1, "put": 0}},
		// No NBI, no fused signal, no per-image completion: a blocking put,
		// quiet + flag put + quiet, and a full quiet for SyncMemoryImage.
		{"mpi3", mpi3Opts(), map[string]int{"put_nbi": 0, "put_signal_nbi": 0, "quiet_image": 0, "put": 2, "quiet": 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trc := NewTracer()
			o := tc.opts
			o.Tracer = trc
			if err := Run(2, o, func(img *Image) {
				c := Allocate[int64](img, 8)
				sig := NewSignal(img)
				if img.ThisImage() == 1 {
					c.PutSignalAsync(2, All(8), []int64{1, 2, 3, 4, 5, 6, 7, 8}, sig)
					img.SyncMemoryImage(2)
				} else {
					sig.Wait(1)
				}
			}); err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			for _, ev := range trc.Events() {
				if ev.Image == 1 {
					got[ev.Op]++
				}
			}
			for kind, n := range tc.want {
				if got[kind] != n {
					t.Errorf("image 1 recorded %d %q events, want %d (all: %v)", got[kind], kind, n, got)
				}
			}
		})
	}
}
