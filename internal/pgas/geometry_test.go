package pgas_test

import (
	"math"
	"strings"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/gasnet"
	"cafshmem/internal/mpi3"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
)

// TestMalformedGeometryPanicsInPgas: a vectored or strided descriptor whose
// geometry is malformed is refused by the one check every library runs,
// pgas.RMA.Span, before any library looks at its region — on all three, with
// the same words.
func TestMalformedGeometryPanicsInPgas(t *testing.T) {
	bad := map[string]struct {
		d    pgas.RMA
		want string
	}{
		"runs of no bytes":    {pgas.RMA{Shape: pgas.Runs, Target: 1, Offs: []int64{0}, Unit: 0}, "do not match 1 runs of 0 bytes"},
		"runs short of local": {pgas.RMA{Shape: pgas.Runs, Target: 1, Offs: []int64{0, 16}, Unit: 8, Local: make([]byte, 8)}, "do not match 2 runs"},
		"partial element":     {pgas.RMA{Shape: pgas.Strided, Target: 1, Stride: 16, Unit: 8, Local: make([]byte, 12)}, "not whole 8-byte elements"},
		"tight stride":        {pgas.RMA{Get: true, Shape: pgas.Strided, Target: 1, Stride: 4, Unit: 8, Local: make([]byte, 16)}, "stride 4 is smaller than the 8-byte element"},
	}
	st := fabric.Stampede()
	libs := map[string]func(d pgas.RMA) error{
		"shmem": func(d pgas.RMA) error {
			return shmem.Run(shmem.Config{Machine: st, Profile: fabric.ProfMV2XSHMEM}, 2, func(pe *shmem.PE) {
				sym := pe.Malloc(64)
				if pe.MyPE() == 0 {
					pe.RMA(&d, sym, false)
				}
			})
		},
		"gasnet": func(d pgas.RMA) error {
			return gasnet.Run(gasnet.Config{Machine: st, Profile: fabric.ProfGASNetIBV}, 2, func(ep *gasnet.EP) {
				seg := ep.Malloc(64)
				if ep.MyNode() == 0 {
					ep.RMA(&d, seg, false)
				}
			})
		},
		"mpi3": func(d pgas.RMA) error {
			return mpi3.Run(mpi3.Config{Machine: st, Profile: fabric.ProfMV2XMPI3}, 2, func(pr *mpi3.Proc) {
				win := pr.WinAllocate(64)
				if pr.Rank() == 0 {
					pr.LockAll(win)
					pr.RMA(win, &d)
				}
			})
		},
	}
	for lib, issue := range libs {
		for name, tc := range bad {
			err := issue(tc.d)
			if err == nil || !strings.Contains(err.Error(), "pgas: ") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: %s: got %v, want the pgas geometry panic %q", lib, name, err, tc.want)
			}
		}
	}
}

// Every entry that stores, reads or waits on partition memory refuses a range
// ending past MaxSegmentBytes, or one whose end wraps past int64, with a pgas
// range panic before it takes a lock or materialises anything; a shmem strided
// put whose span wraps is refused by the library's region check, and
// shmem.Run returns that as its error. A refusal that panicked under a lock
// would leave it held: the worlds are then left unclosed, so that the test
// fails instead of hanging.
func TestSegmentLimitEnforced(t *testing.T) {
	const end = pgas.MaxSegmentBytes - 4 // an 8-byte word here ends past the bound
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	w, err := pgas.NewWorld(fabric.Stampede(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := shmem.Config{Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM}
	sw, err := shmem.NewWorld(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	pe, sym := sw.Attach(sw.PgasWorld().PE(0)), shmem.Sym{Off: 64, Size: 1 << 20}
	for _, c := range []struct {
		what  string
		world *pgas.World
		f     func()
	}{
		{"Write", w, func() { w.Write(0, end, data, 0) }},
		{"Read", w, func() { w.Read(0, end, data) }},
		{"WriteV", w, func() { w.WriteV(0, end-4, 8, 4, data, 0) }},
		{"ReadV", w, func() { w.ReadV(0, end-4, 8, 4, data) }},
		{"WriteRuns", w, func() { w.WriteRuns(0, end-4, []int64{0, 8}, 4, data, []float64{0, 0}) }},
		{"ReadRuns", w, func() { w.ReadRuns(0, end-4, []int64{0, 8}, 4, data) }},
		{"RMW64", w, func() { w.RMW64(0, end, pgas.OpAdd, 1, 0) }},
		{"RepairWrite", w, func() { w.RepairWrite(0, end, data, 0) }},
		{"ReadUint64Ts", w, func() { w.ReadUint64Ts(0, end) }},
		{"Touch", w, func() { w.Touch(0, pgas.MaxSegmentBytes, 0) }},
		{"Spin", w, func() { w.PE(0).Spin(1, end, 1, 1, func() (uint64, bool) { return 0, true }) }},
		{"WriteV wrapping", w, func() { w.WriteV(0, 0, 1<<62, 8, make([]byte, 24), 0) }},
		{"ReadV wrapping", w, func() { w.ReadV(1, 0, 1<<62, 8, make([]byte, 24)) }},
		{"WriteRuns wrapping", w, func() { w.WriteRuns(0, 0, []int64{math.MaxInt64 - 2}, 4, data[:4], []float64{0}) }},
		{"ReadRuns wrapping", w, func() { w.ReadRuns(0, math.MaxInt64-2, []int64{0}, 8, data) }},
		{"shmem IPutMem of 3 wrapping", sw.PgasWorld(), func() { pe.IPutMem(1, sym, 0, 1<<62, 8, make([]byte, 24)) }},
		{"shmem IPutMem of 5 wrapping", sw.PgasWorld(), func() { pe.IPutMem(1, sym, 0, 1<<62, 8, make([]byte, 40)) }},
	} {
		want := "pgas: "
		if c.world != w {
			want = "shmem: "
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, want) {
					t.Errorf("%s: recovered %q, want a %srange panic", c.what, msg, want)
				}
			}()
			c.f()
		}()
		if held := c.world.LockedPartitions(); len(held) > 0 {
			t.Fatalf("%s left the locks of partitions %v held", c.what, held)
		}
	}
	for _, x := range []*pgas.World{w, sw.PgasWorld()} {
		if s := x.PageStats(); s != (pgas.PageStats{}) {
			t.Errorf("a refused access materialised memory: %v", s)
		}
		x.Close()
	}
	for _, n := range []int{3, 5} {
		err := shmem.Run(cfg, 2, func(pe *shmem.PE) {
			sym := pe.Malloc(64)
			if pe.MyPE() == 0 {
				pe.IPutMem(1, sym, 0, 1<<62, 8, make([]byte, 8*n))
			}
		})
		if err == nil || !strings.Contains(err.Error(), "shmem: ") {
			t.Errorf("shmem.Run of an IPutMem of %d elements at stride 1<<62 returned %v, want the region error", n, err)
		}
	}
}
