package shmem

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// One program over every put/get shape the library has, shared by the tests
// that pin what the issue path computes: the lossy golden (absolute clocks and
// link forensics with no plan and under three fault plans) and the loss-free
// bit-identity test (lossy_test.go). link_penalty_test.go has the per-shape
// table.

const shapesPEs = 4

// shapesTimes is what one PE of shapesProgram reports: its clock when phase A
// (every put shape and the nonblocking gets, toward the next PE) is complete,
// when phase B (the blocking gets, from the previous PE) is, and at the end.
type shapesTimes [3]float64

// pattern is the payload byte PE me stores at index i of its source buffer.
func pattern(me, i int) byte { return byte(me*31 + i*7 + 1) }

// shapesProgram runs the every-shape program on one PE. It uses only the
// stat-bearing completion points, so a plan that exhausts retries neither
// panics nor hangs it (MallocStat, not Malloc, because a PE still leaving the
// allocator's last barrier may already see a link a faster PE has since given
// up). waitSignals makes the consumer wait on the three
// signal words (and the caller check the payloads): only meaningful under
// plans that give no link up, where every message eventually lands.
func shapesProgram(pe *PE, waitSignals bool) shapesTimes {
	var out shapesTimes
	data, _ := pe.MallocStat(4096)
	sig, _ := pe.MallocStat(3 * 8)
	me, n := pe.MyPE(), pe.NumPEs()
	nxt, prev := (me+1)%n, (me+n-1)%n
	buf := make([]byte, 512)
	for i := range buf {
		buf[i] = pattern(me, i)
	}
	f64 := make([]float64, 16)
	for i := range f64 {
		f64[i] = float64(me*100 + i)
	}
	got := make([]byte, 512)
	ctx := pe.CtxCreate()

	// Phase A: every put shape, then the nonblocking gets, toward nxt.
	pe.PutMem(nxt, data, 0, buf[:64])
	pe.PutMemNBI(nxt, data, 64, buf[64:128])
	pe.PutMemV(nxt, data, []int64{256, 320, 384}, 32, buf[:96])
	pe.PutMemVNBI(nxt, data, []int64{512, 576, 640}, 32, buf[96:192])
	IPut(pe, nxt, data, 100, 3, f64, 0, 2, 8)
	pe.IPutMem(nxt, data, 1024, 24, 8, buf[:64])
	pe.IPutMemNBI(nxt, data, 1280, 24, 8, buf[64:128])
	pe.Clock().Advance(700) // compute the in-flight transfers overlap
	pe.PutSignal(nxt, data, 1536, buf[:32], sig, 0, int64(me)+1)
	pe.PutSignalNBI(nxt, data, 1600, buf[32:64], sig, 1, int64(me)+1)
	ctx.PutMemNBI(nxt, data, 1664, buf[128:160])
	ctx.PutSignalNBI(nxt, data, 1728, buf[160:192], sig, 2, int64(me)+1)
	pe.GetMemNBI(nxt, data, 2048, got[:64])
	pe.IGetMemNBI(nxt, data, 2048, 16, 8, got[64:128])
	ctx.GetMemNBI(nxt, data, 2112, got[128:192])
	_ = ctx.QuietStat()
	_ = pe.QuietTargetStat(nxt)
	_ = pe.QuietStat()
	if waitSignals {
		for i := 0; i < 3; i++ {
			pe.SignalWaitUntil(sig, i, CmpNE, 0)
		}
	}
	out[0] = pe.Clock().Now()
	_ = pe.BarrierStat()

	// Phase B: the blocking gets, from prev (what prev's PE put here in phase
	// A is its neighbour's business; these read prev's own partition).
	pe.GetMem(prev, data, 0, got[:64])
	pe.GetMemV(prev, data, []int64{256, 320, 384}, 32, got[:96])
	f64in := make([]float64, 16)
	IGet(pe, prev, data, 100, 3, f64in, 0, 2, 8)
	pe.IGetMem(prev, data, 1024, 24, 8, got[:64])
	out[1] = pe.Clock().Now()
	_ = pe.BarrierStat()

	if waitSignals {
		checkShapesLanded(pe, data, prev)
	}
	out[2] = pe.Clock().Now()
	return out
}

// checkShapesLanded compares this PE's partition with what prev put there in
// phase A: every shape must have landed its bytes where the call said.
func checkShapesLanded(pe *PE, data Sym, prev int) {
	me := pe.MyPE()
	local := make([]byte, data.Size)
	pe.world.pw.Read(me, data.Off, local)
	src := func(lo, hi int) []byte {
		b := make([]byte, hi-lo)
		for i := range b {
			b[i] = pattern(prev, lo+i)
		}
		return b
	}
	expect := func(what string, off int, want []byte) {
		if !bytes.Equal(local[off:off+len(want)], want) {
			panic(fmt.Sprintf("PE %d: %s at %d = %v, want %v", me, what, off, local[off:off+len(want)], want))
		}
	}
	expect("PutMem", 0, src(0, 64))
	expect("PutMemNBI", 64, src(64, 128))
	for k, off := range []int{256, 320, 384} {
		expect("PutMemV", off, src(k*32, (k+1)*32))
	}
	for k, off := range []int{512, 576, 640} {
		expect("PutMemVNBI", off, src(96+k*32, 96+(k+1)*32))
	}
	for k := 0; k < 8; k++ {
		var want [8]byte
		pgas.Store(want[:], float64(prev*100+2*k))
		expect("IPut", (100+3*k)*8, want[:])
		expect("IPutMem", 1024+24*k, src(8*k, 8*k+8))
		expect("IPutMemNBI", 1280+24*k, src(64+8*k, 64+8*k+8))
	}
	expect("PutSignal", 1536, src(0, 32))
	expect("PutSignalNBI", 1600, src(32, 64))
	expect("Ctx.PutMemNBI", 1664, src(128, 160))
	expect("Ctx.PutSignalNBI", 1728, src(160, 192))
}

// runShapes runs shapesProgram on a fresh Stampede world under plan and
// returns every PE's checkpoints and the world's link forensics.
func runShapes(t *testing.T, plan *fabric.FaultPlan, engine pgas.Engine, waitSignals bool) ([shapesPEs]shapesTimes, []pgas.LinkReport) {
	t.Helper()
	cfg := stampedeCfg()
	cfg.FaultPlan = plan
	cfg.Engine = engine
	w, err := NewWorld(cfg, shapesPEs)
	if err != nil {
		t.Fatal(err)
	}
	defer w.PgasWorld().Close()
	var times [shapesPEs]shapesTimes
	if err := w.PgasWorld().Run(func(p *pgas.PE) {
		pe := w.Attach(p)
		times[pe.MyPE()] = shapesProgram(pe, waitSignals)
	}); err != nil {
		t.Fatal(err)
	}
	return times, w.PgasWorld().LinkReports()
}

// The three plans of the lossy golden.
var (
	// Every link drops, delays and duplicates for the whole run; the default
	// retry policy rides it out (no link is given up under this seed).
	planAllLinksLossy = &fabric.FaultPlan{
		Seed:   0x5eed,
		Losses: []fabric.LinkLoss{{Src: -1, Dst: -1, DropProb: 0.25, DelayMaxNs: 2500, DupProb: 0.15}},
	}
	// Link 0->1 loses most packets under a two-retry policy: some messages
	// land and are acked, some land but are never acked (the payload is
	// there, the link is given up), some never land.
	planExhaustsRetries = &fabric.FaultPlan{
		Seed:   0xdead,
		Losses: []fabric.LinkLoss{{Src: 0, Dst: 1, DropProb: 0.6, DelayMaxNs: 1500}},
		Retry:  fabric.RetryPolicy{RetryBaseNs: 6000, RetryCapNs: 12000, MaxRetries: 2},
	}
	// No losses: PE 0's link is degraded for the whole run.
	planDegradedLink = &fabric.FaultPlan{
		Links: []fabric.LinkDegrade{{PE: 0, AtNs: 0, PenaltyNs: shapesPenaltyNs}},
	}
)

const shapesPenaltyNs = 1000

// TestLossyGolden pins what the issue path computes with no plan and under
// fault plans: absolute per-PE clocks and the per-link forensic counters. The
// constants were captured on the tree that still had one hand-written body
// per entry point and a closure-driven lossy fork beside each (PR 17), and the
// one core reproduces them bit for bit — with one exception, the
// degraded-link clocks. IPut and IPutMem (phase A), IGet and
// IGetMem (phase B) skipped the link penalty there; each now pays it once
// per call, so PE 0's checkpoints are 2 and then 4 penalties later than
// captured (33140.5… and 46884.4…, final 47924.4…), and the signal waits and
// barrier exits PE 0 paces moved with them.
func TestLossyGolden(t *testing.T) {
	cases := []struct {
		name        string
		plan        *fabric.FaultPlan
		waitSignals bool
		times       [shapesPEs]shapesTimes
		reports     []string
	}{
		{
			name: "nil-plan", waitSignals: true,
			times: [shapesPEs]shapesTimes{
				{17140.545454545456, 26884.472727272732, 27924.472727272732},
				{17140.545454545456, 26884.472727272732, 27924.472727272732},
				{17140.545454545456, 26884.472727272732, 27924.472727272732},
				{17140.545454545456, 26884.472727272732, 27924.472727272732},
			},
		},
		{
			name: "all-links-lossy", plan: planAllLinksLossy, waitSignals: true,
			times: [shapesPEs]shapesTimes{
				{128262.56583378822, 287372.07227217127, 383673.8714091737},
				{73381.00816811022, 327539.987241922, 383673.8714091737},
				{264963.9980707414, 311154.37138663506, 383673.8714091737},
				{130598.81099735557, 382633.8714091737, 383673.8714091737},
			},
			reports: []string{
				"0->1: msgs=18 attempts=31 retries=13 drops=10 ackdrops=3 dups=4",
				"0->3: msgs=6 attempts=7 retries=1 drops=1 ackdrops=0 dups=1",
				"1->0: msgs=6 attempts=11 retries=5 drops=2 ackdrops=3 dups=4",
				"1->2: msgs=18 attempts=30 retries=12 drops=5 ackdrops=7 dups=11",
				"2->1: msgs=6 attempts=9 retries=3 drops=2 ackdrops=1 dups=1",
				"2->3: msgs=18 attempts=36 retries=18 drops=8 ackdrops=10 dups=12",
				"3->0: msgs=18 attempts=27 retries=9 drops=6 ackdrops=3 dups=8",
				"3->2: msgs=6 attempts=13 retries=7 drops=4 ackdrops=3 dups=4",
			},
		},
		{
			name: "exhausts-retries", plan: planExhaustsRetries,
			times: [shapesPEs]shapesTimes{
				{45410.545454545456, 55154.47272727272, 56194.47272727272},
				{16600.545454545456, 55154.47272727272, 56194.47272727272},
				{16600.545454545456, 55154.47272727272, 56194.47272727272},
				{16600.545454545456, 55154.47272727272, 56194.47272727272},
			},
			reports: []string{"0->1: msgs=18 attempts=46 retries=28 drops=26 ackdrops=14 dups=5 UNREACHABLE"},
		},
		{
			name: "degraded-link", plan: planDegradedLink, waitSignals: true,
			times: [shapesPEs]shapesTimes{
				{35140.54545454546, 50884.472727272725, 51924.472727272725},
				{29187.21818181819, 44884.472727272725, 51924.472727272725},
				{17140.545454545456, 44884.472727272725, 51924.472727272725},
				{17140.545454545456, 44884.472727272725, 51924.472727272725},
			},
		},
	}
	for _, c := range cases {
		for _, e := range engineSpellings {
			t.Run(c.name+"/"+e.name, func(t *testing.T) {
				times, links := runShapes(t, c.plan, e.engine, c.waitSignals)
				var reps []string
				for _, r := range links {
					reps = append(reps, r.String())
				}
				if times != c.times || !reflect.DeepEqual(reps, c.reports) {
					t.Errorf("golden mismatch; got\ntimes: %#v\nreports: %#v", times, reps)
				}
			})
		}
	}
}

// TestLossyGoldenPlansBite keeps the golden honest: the lossy plan retried,
// duplicated and gave nothing up; the exhausting plan gave 0->1 up with at
// least one payload landed unacked or lost.
func TestLossyGoldenPlansBite(t *testing.T) {
	for _, plan := range []*fabric.FaultPlan{planAllLinksLossy, planExhaustsRetries} {
		_, links := runShapes(t, plan, pgas.EngineGoroutine, plan == planAllLinksLossy)
		var sum pgas.LinkReport
		for _, r := range links {
			sum.Retries += r.Retries
			sum.Drops += r.Drops
			sum.AckDrops += r.AckDrops
			sum.DupsSuppressed += r.DupsSuppressed
			sum.Unreachable = sum.Unreachable || r.Unreachable
		}
		if sum.Retries == 0 || sum.Drops == 0 || sum.AckDrops == 0 {
			t.Errorf("%v: protocol not exercised: %+v", plan, sum)
		}
		if plan == planAllLinksLossy && (sum.DupsSuppressed == 0 || sum.Unreachable) {
			t.Errorf("all-links plan: want duplicates and no give-up, got %+v", sum)
		}
		if plan == planExhaustsRetries && !sum.Unreachable {
			t.Errorf("exhausting plan gave no link up: %+v", sum)
		}
	}
}
