package caf

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"cafshmem/internal/pgas"
)

// allocSteps is the collective allocation protocol seen from one image: every
// kind of allocating and releasing call the runtime makes, entered at clocks
// that differ image by image, with the clock sampled after each. The last two
// samples are the Fig 8 trap: a wait on a fresh one-word coarray right after
// Clock().Reset() merges the stamp OpenSHMEM's allocator backed the region
// with, and only OpenSHMEM's does.
func allocSteps(img *Image) []float64 {
	var clocks []float64
	me := float64(img.ThisImage())
	step := func() {
		clocks = append(clocks, img.Clock().Now())
		img.Clock().Advance(me * 3.25)
	}
	img.Clock().Advance(me * 7.5)
	a := Allocate[int64](img, 100)
	step()
	l := NewLock(img)
	step()
	NewSignal(img)
	step()
	b := Allocate[float32](img, 3, 7)
	step()
	a.Deallocate()
	step()
	g := img.worldGroup()
	g.ensureScratch(5000)
	step()
	c := Allocate[int64](img, 10) // on OpenSHMEM, out of the space a left
	step()
	g.ensureScratch(20000) // frees the first scratch area, allocates the next
	step()
	l.Deallocate()
	b.Deallocate()
	c.Deallocate()
	step()
	flag := Allocate[int64](img, 1)
	img.SyncAll()
	step()
	img.Clock().Reset()
	flag.WaitLocal(pgas.CmpEQ, 0, 0)
	step()
	return clocks
}

// fractional gives the options' library profile latencies that are not whole
// nanoseconds, as the built-in ones are: whole numbers add exactly in any
// grouping, and the pins below must tell two groupings apart.
func fractional(o Options) Options {
	p := *o.Machine.MustProfile(o.Profile)
	p.Name += "+frac"
	p.OverheadNs += 0.3
	p.LatencyNs += 0.7
	p.IntraLatencyNs += 0.1
	o.Machine.AddProfile(&p)
	o.Profile = p.Name
	return o
}

// The allocation protocol's virtual time, pinned at the commit before the
// three-barrier protocol was replaced by one rendezvous with a release action:
// image 1's clock at the end of the sequence and after the trap's wait, and a
// hash over every sample of every image.
func TestAllocationProtocolClocksArePinned(t *testing.T) {
	for _, tc := range []struct {
		name       string
		opts       Options
		n          int
		end, trap  float64
		everyClock uint64
	}{
		{"shmem", shmemOpts(), 2, 28346, 27124.6, 0xbc7dce2f2061b9d5},
		{"shmem", shmemOpts(), 5, 68053.05, 65110.05, 0xb0484da61b8b833e},
		{"shmem", shmemOpts(), 300, 611933.1, 585814.4999999999, 0xa41ce147f059210d},
		{"gasnet", gasnetOpts(), 2, 29832.5, 210.3, 0x3699f0764894acd},
		{"gasnet", gasnetOpts(), 5, 71795.55, 210.3, 0x8120d5c1f7b4ea75},
		{"gasnet", gasnetOpts(), 300, 573726.5999999999, 210.3, 0xbb6a17360e4ec71d},
		{"mpi3", mpi3Opts(), 2, 38711.40000000003, 420.3, 0x8cd2cc3a36f67d71},
		{"mpi3", mpi3Opts(), 5, 107734.44999999994, 420.3, 0xe64addbda8c41428},
		{"mpi3", mpi3Opts(), 300, 797855.5, 420.3, 0x14b5f7940c2e92e5},
	} {
		all := make([][]float64, tc.n)
		err := Run(tc.n, fractional(tc.opts), func(img *Image) {
			all[img.ThisImage()-1] = allocSteps(img)
		})
		if err != nil {
			t.Errorf("%s/%d: %v", tc.name, tc.n, err)
			continue
		}
		h := fnv.New64a()
		for _, clocks := range all {
			for _, c := range clocks {
				var b [8]byte
				pgas.Store(b[:], math.Float64bits(c))
				h.Write(b[:])
			}
		}
		first := all[0]
		end, trap := first[len(first)-2], first[len(first)-1]
		if end != tc.end || trap != tc.trap || h.Sum64() != tc.everyClock {
			t.Errorf("%s/%d: image 1 ends at %v, leaves the trap's wait at %v, all samples hash to %#x; pinned %v, %v, %#x",
				tc.name, tc.n, end, trap, h.Sum64(), tc.end, tc.trap, tc.everyClock)
		}
	}
}

// Under FaultTolerant the survivors of an image that failed before the
// collective allocation get one handle, the failure as status and one clock —
// those of the parent commit — and the allocator moved once: the next
// allocation lies right behind the first.
func TestAllocateStatAmongSurvivorsIsPinned(t *testing.T) {
	const n = 5
	type outcome struct {
		off, next int64
		stat      Stat
		clock     float64
	}
	for _, tc := range []struct {
		name string
		quit func(*Image) // what image 3 does instead of allocating
		want outcome
	}{
		{"failed before", func(img *Image) { img.FailImage() }, outcome{1049728, 1050560, StatFailedImage, 19167}},
		{"stopped before", func(*Image) {}, outcome{1049728, 1050560, StatStoppedImage, 19167}},
	} {
		o := fractional(shmemOpts())
		o.FaultTolerant = true
		var mu sync.Mutex
		got := map[int]outcome{}
		err := Run(n, o, func(img *Image) {
			me := img.ThisImage()
			if me == 3 {
				tc.quit(img)
				return
			}
			img.Clock().Advance(float64(me) * 7.5)
			c, stat := AllocateStat[int64](img, 100)
			clock := img.Clock().Now()
			d, _ := AllocateStat[int64](img, 1)
			mu.Lock()
			got[me] = outcome{c.off, d.off, stat, clock}
			mu.Unlock()
		})
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		for me := 1; me <= n; me++ {
			if me != 3 && got[me] != tc.want {
				t.Errorf("%s: image %d got %+v, want %+v", tc.name, me, got[me], tc.want)
			}
		}
	}
}

// A collective allocation is one host rendezvous and a collective release is
// one, on every transport, read from the barrier's generation count. Image 1
// reads it: no generation can be released without it.
func TestAllocationIsOneRendezvous(t *testing.T) {
	forEachTransport(t, 5, func(img *Image) {
		img.SyncAll()
		gen := func() uint64 { return img.Metrics().Rendezvous }
		var c *Coarray[int64]
		var l *Lock
		g := img.worldGroup()
		type step struct {
			name string
			call func()
		}
		calls := []step{
			{"Allocate", func() { c = Allocate[int64](img, 10) }},
			{"Deallocate", func() { c.Deallocate() }},
			{"NewLock", func() { l = NewLock(img) }},
			{"Lock.Deallocate", func() { l.Deallocate() }},
			{"ensureScratch, first", func() { g.ensureScratch(5000) }},
		}
		for _, step := range calls {
			before := gen()
			step.call()
			if img.ThisImage() == 1 && gen() != before+1 {
				panic(fmt.Sprintf("%s took %d host rendezvous, want 1", step.name, gen()-before))
			}
		}
		before := gen()
		g.ensureScratch(20000) // one release and one allocation
		if img.ThisImage() == 1 && gen() != before+2 {
			panic(fmt.Sprintf("scratch growth took %d host rendezvous, want 2", gen()-before))
		}
	})
}

// The survivors' allocation when its rendezvous is released by a departure:
// image 3 returns once every other image has gone to sleep in AllocateStat.
// They get one handle and the stopped image as status, and the allocator moved
// once. (The release action's own test forces this order exactly, in pgas;
// here image 3 gives up waiting after a bounded number of yields, and what is
// asserted holds for either order.)
func TestAllocateStatReleasedByADeparture(t *testing.T) {
	const n = 5
	o := shmemOpts()
	o.FaultTolerant = true
	var mu sync.Mutex
	offs := map[int64]int{}
	err := Run(n, o, func(img *Image) {
		img.SyncAll()
		if img.ThisImage() == 3 {
			base := img.Metrics().Sleeps
			for i := 0; i < 10000 && img.Metrics().Sleeps < base+n-1; i++ {
				img.local.Yield()
			}
			return
		}
		c, stat := AllocateStat[int64](img, 100)
		d, _ := AllocateStat[int64](img, 1)
		if stat != StatStoppedImage || d.off != c.off+832 {
			panic(fmt.Sprintf("status %v, allocations at %d and %d; want %v and the second 832 bytes behind the first",
				stat, c.off, d.off, StatStoppedImage))
		}
		mu.Lock()
		offs[c.off]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 1 {
		t.Errorf("survivors hold %d different handles: %v", len(offs), offs)
	}
}
