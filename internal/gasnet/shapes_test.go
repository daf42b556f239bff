package gasnet

import (
	"bytes"
	"hash/fnv"
	"reflect"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// One program over every entry point of the extended API that moves bytes to
// or from a remote segment, pinned as absolute virtual times: what each call
// charges the initiator, when its completion point lets it go, when a signal
// word becomes visible at its consumer, and what the partitions contain
// afterwards.

// The world is two Stampede nodes, the second barely populated: PEs 0-15 on
// node 0, PEs 16 and 17 on node 1. Four PEs drive traffic, each toward its
// inter-node partner (me^16) and its intra-node partner (me^1); the other
// fourteen only attend the collectives.
const shapesPEs = 18

var shapesActive = [4]int{0, 1, 16, 17}

const shapesHandler = 7

// shapesOut is what one PE of shapesProgram reports.
type shapesOut struct {
	Clocks []float64 // the PE's clock at each checkpoint
	SigTs  []float64 // when each of its five signal words became visible
	Image  uint64    // FNV-1a of its data and signal regions at the end
}

// shapesProfile is the IBV conduit with an overhead, latencies and a handler
// dispatch that are not whole nanoseconds. Every built-in profile's are, and
// whole numbers add to a clock exactly in any order; only with fractions does
// (now + delivery) + handler differ from now + (delivery + handler) in the last
// bit, and telling the two apart is this golden's job.
const shapesProfile = "GASNet-ibv-fractional"

func shapesMachine(t *testing.T) *fabric.Machine {
	m := fabric.Stampede()
	ibv, err := m.Profile(fabric.ProfGASNetIBV)
	if err != nil {
		t.Fatal(err)
	}
	p := *ibv
	p.Name = shapesProfile
	p.OverheadNs += 0.3
	p.LatencyNs += 0.7
	p.IntraLatencyNs += 0.1
	p.ContentionLatencyNs += 0.01
	p.AMHandlerNs += 0.9
	m.AddProfile(&p)
	return m
}

// pattern is the payload byte PE me stores at index i of its source buffer.
func pattern(me, i int) byte { return byte(me*31 + i*7 + 1) }

func shapesProgram(t *testing.T, ep *EP) shapesOut {
	var g shapesOut
	// The regions are laid out by hand: a collective Malloc would start every
	// clock tens of microseconds in, where a clock's last bit is too coarse for
	// the order of two small additions to show.
	seg := Seg{Off: 64, Size: 4096}
	sig := Seg{Off: seg.Off + seg.Size, Size: 5 * 8}
	me := ep.MyNode()
	cp := func() { g.Clocks = append(g.Clocks, ep.Clock().Now()) }
	// The nonblocking shapes, and the signal puts, are a layered runtime's
	// descriptors (RMA). both spans the data and the signal regions, so that a
	// signal word's offset is relative to the data region's start.
	both := Seg{Off: seg.Off, Size: seg.Size + sig.Size}
	rma := func(target int, nbi bool, d pgas.RMA) {
		d.Target = target
		ep.RMA(&d, both, nbi)
	}
	sigOff := func(k int) int64 { return seg.Size + int64(k)*8 }
	class := -1
	for c, pe := range shapesActive {
		if pe == me {
			class = c
		}
	}
	if class < 0 {
		ep.Barrier()
		cp()
		ep.Barrier()
		cp()
		return g
	}
	// Sizes differ by PE so that no two active PEs keep the same clock.
	n := func(base int) int { return base + 8*class }
	x, i := me^16, me^1
	buf := make([]byte, 1024)
	for k := range buf {
		buf[k] = pattern(me, k)
	}
	tail := seg.Size - int64(n(40)) // the intra partner's blocking put ends the region

	// Blocking puts, each completed toward its own destination.
	ep.Put(x, seg, 0, buf[:n(72)])
	ep.WaitSyncImage(x)
	cp()
	ep.Put(i, seg, tail, buf[:n(40)])
	ep.WaitSyncAll()
	cp()
	// An implicit handle overlapped with compute.
	rma(x, true, pgas.RMA{Off: 128, Local: buf[100 : 100+n(128)]})
	ep.Clock().Advance(150.5)
	ep.WaitSyncImage(x)
	cp()
	// Implicit handles: both transfers serialise on the endpoint's one pipe.
	rma(x, true, pgas.RMA{Off: 512, Local: buf[:n(600)]})
	rma(i, true, pgas.RMA{Off: 2048 + 128, Local: buf[:n(24)]})
	ep.WaitSyncImage(i)
	cp()
	ep.WaitSyncAll()
	cp()
	// Signal puts: the blocking one is (now + delivery) + handler, the
	// nonblocking one wire-out + (delivery + handler).
	val := uint64(me) + 1
	rma(x, false, pgas.RMA{Shape: pgas.Signal, Off: 1200, Local: buf[:n(56)], SigOff: sigOff(0), SigVal: val})
	ep.WaitSyncImage(x)
	cp()
	rma(x, true, pgas.RMA{Shape: pgas.Signal, Off: 1300, Local: buf[56 : 56+n(64)], SigOff: sigOff(1), SigVal: val})
	ep.WaitSyncImage(x)
	cp()
	rma(i, false, pgas.RMA{Shape: pgas.Signal, SigOff: sigOff(2), SigVal: val}) // the signal alone
	rma(i, true, pgas.RMA{Shape: pgas.Signal, Off: 2048 + 256, Local: buf[:n(8)], SigOff: sigOff(3), SigVal: val})
	ep.WaitSyncAll()
	cp()
	// A payload moved as a Put, then an active message whose handler stores
	// the fifth signal word; the requester waits for the reply.
	ep.Put(x, seg, 1400, buf[:n(48)])
	ep.RequestSync(x, shapesHandler, sig.Off+4*8, int64(me)+1)
	ep.WaitSyncAll()
	cp()
	// The consumer's view: when each signal word became visible here.
	for k := 0; k < 5; k++ {
		_, ts := ep.Pgas().WaitWord(sig.Off+int64(k)*8, pgas.CmpNE, 0)
		g.SigTs = append(g.SigTs, ts)
	}
	ep.Barrier()
	cp()

	// Gets read back what this PE put on its partners.
	got := make([]byte, 1024)
	same := func(what string, got, want []byte) {
		if !bytes.Equal(got, want) {
			t.Errorf("PE %d: %s read back %v, want %v", me, what, got, want)
		}
	}
	ep.Get(x, seg, 0, got[:n(72)])
	cp()
	same("Get inter", got[:n(72)], buf[:n(72)])
	ep.Get(i, seg, tail, got[:n(40)])
	cp()
	same("Get intra", got[:n(40)], buf[:n(40)])
	whole, part := make([]byte, n(128)), make([]byte, n(50))
	rma(x, true, pgas.RMA{Get: true, Off: 128, Local: whole})
	// The last 20 bytes of the region.
	rma(i, true, pgas.RMA{Get: true, Off: seg.Size - 20, Local: part[:20]})
	ep.WaitSyncImage(x)
	cp()
	ep.WaitSyncImage(i)
	cp()
	same("get_nbi whole", whole, buf[100:100+n(128)])
	same("get_nbi tail", part[:20], buf[n(40)-20:n(40)])
	rma(x, true, pgas.RMA{Get: true, Off: 512, Local: got[:n(600)]})
	rma(i, true, pgas.RMA{Get: true, Off: 2048 + 128, Local: got[700 : 700+n(24)]})
	ep.WaitSyncImage(x)
	cp()
	ep.WaitSyncAll()
	cp()
	same("get_nbi inter", got[:n(600)], buf[:n(600)])
	same("get_nbi intra", got[700:700+n(24)], buf[:n(24)])
	ep.Barrier()
	cp()

	h64 := fnv.New64a()
	h64.Write(ep.Pgas().LocalBytes(seg.Off, seg.Size))
	h64.Write(ep.Pgas().LocalBytes(sig.Off, sig.Size))
	g.Image = h64.Sum64()
	return g
}

// shapesTimes is every virtual time one run of shapesProgram pins: per active
// PE its checkpoints and signal-word timestamps, and the two barrier exits an
// idle PE sees.
type shapesTimes struct {
	Clocks [4][]float64
	SigTs  [4][]float64
	Idle   []float64
}

// runShapes runs shapesProgram with the given number of active pairs per node
// under plan (nil for none), and returns the link reports with the rest.
func runShapes(t *testing.T, pairs int, plan *fabric.FaultPlan) (times shapesTimes, images [4]uint64, links []pgas.LinkReport) {
	t.Helper()
	w, err := NewWorld(Config{Machine: shapesMachine(t), Profile: shapesProfile, Options: pgas.Options{FaultPlan: plan, ActivePairs: pairs}}, shapesPEs)
	if err != nil {
		t.Fatal(err)
	}
	defer w.PgasWorld().Close()
	w.RegisterHandler(shapesHandler, func(tok *Token, args []int64) {
		tok.RMW64(args[0], pgas.OpSwap, uint64(args[1]))
		tok.Reply()
	})
	var outs [shapesPEs]shapesOut
	if err := w.PgasWorld().Run(func(p *pgas.PE) {
		outs[p.ID] = shapesProgram(t, w.Attach(p))
	}); err != nil {
		t.Fatal(err)
	}
	for c, pe := range shapesActive {
		times.Clocks[c], times.SigTs[c] = outs[pe].Clocks, outs[pe].SigTs
		images[c] = outs[pe].Image
	}
	times.Idle = outs[2].Clocks
	for pe := 3; pe < 16; pe++ {
		if !reflect.DeepEqual(outs[pe], outs[2]) {
			t.Errorf("idle PE %d reports %+v, PE 2 %+v", pe, outs[pe], outs[2])
		}
	}
	return times, images, w.PgasWorld().LinkReports()
}

// TestLossFreePlanBitIdentical: a plan with no rule (only a seed) leaves every
// virtual time, count and partition of the program bit-identical to no plan,
// and engages no link's reliability protocol.
func TestLossFreePlanBitIdentical(t *testing.T) {
	times, images, _ := runShapes(t, 1, nil)
	pTimes, pImages, links := runShapes(t, 1, &fabric.FaultPlan{Seed: 1})
	if !reflect.DeepEqual(pTimes, times) || pImages != images {
		t.Fatalf("loss-free plan perturbed the program:\n%+v\n!=\n%+v", pTimes, times)
	}
	if len(links) != 0 {
		t.Fatalf("loss-free plan engaged the reliability protocol: %v", links)
	}
}

// TestGASNetShapesGolden pins the program above with 1 and with 16 active
// pairs per node. The constants were captured on the tree in which every
// entry point still priced, reserved, wrote and booked by hand (PR 19);
// regrouping either signal put's delivery and handler terms fails it. The
// explicit-handle ops and the fire-and-forget long active message the program
// used are gone from the library: the nonblocking ops are now implicit-handle
// descriptors, which reproduce every constant, and the fifth signal word is
// stored by a request that waits for its reply, which moves every clock from
// its checkpoint on by that wait (the ninth checkpoint onwards, and the idle
// PEs' barrier exits) and nothing else: the signal timestamps and partition
// images are the captured ones.
func TestGASNetShapesGolden(t *testing.T) {
	// What lands does not depend on what it costs.
	wantImages := [4]uint64{0xb934690b935e5c24, 0x6b3d61263f4f0677, 0x412aa8f64e78da74, 0x4c35d1b365679987}
	cases := []struct {
		pairs int
		times shapesTimes
	}{
		{pairs: 1, times: shapesTimes{
			Clocks: [4][]float64{
				{1514.211009174312, 2028.6110091743121, 3553.0972477064224, 4276.197247706423, 5164.188990825689, 7577.832110091744, 9992.943119266056, 11616.943119266056, 15738.950458715597, 23485.47247706422, 26290.383486238534, 27104.883486238534, 29920.069724770645, 30130.369724770644, 33032.161467889906, 33242.46146788991, 40973.37247706423},
				{1515.678899082569, 2030.8788990825688, 3556.8330275229364, 4280.733027522937, 5169.392660550459, 7584.503669724771, 10001.08256880734, 11625.88256880734, 15749.357798165138, 23485.47247706422, 26291.85137614679, 27107.15137614679, 29923.80550458716, 30134.105504587158, 33037.36513761468, 33247.665137614684, 40973.37247706423},
				{1517.1467889908258, 2033.1467889908258, 3560.5688073394504, 4285.268807339451, 5174.596330275231, 7591.175229357799, 10009.222018348624, 11634.822018348625, 15759.765137614679, 23485.47247706422, 26293.31926605505, 27109.419266055047, 29927.541284403673, 30137.841284403672, 33042.56880733945, 33252.86880733945, 40973.37247706423},
				{1518.6146788990827, 2035.414678899083, 3564.3045871559634, 4289.804587155964, 5179.8, 7597.846788990825, 10017.361467889908, 11643.761467889908, 15770.17247706422, 23485.47247706422, 26294.787155963302, 27111.687155963304, 29931.277064220187, 30141.577064220186, 33047.77247706422, 33258.07247706423, 40973.37247706423},
			},
			SigTs: [4][]float64{
				{7591.175229357799, 10009.222018348624, 11413.18256880734, 11625.88256880734, 14258.765137614679},
				{7597.846788990825, 10017.361467889908, 11405.043119266056, 11616.943119266056, 14269.17247706422},
				{7577.832110091744, 9992.943119266056, 11429.461467889909, 11643.761467889908, 14237.950458715597},
				{7584.503669724771, 10001.08256880734, 11421.322018348625, 11634.822018348625, 14248.357798165138},
			},
			Idle: []float64{23485.47247706422, 40973.37247706423},
		}},
		{pairs: 16, times: shapesTimes{
			Clocks: [4][]float64{
				{3115.017301345809, 5055.460456475512, 8375.707881090282, 12483.087952049842, 13425.75205897202, 17412.35077127941, 21428.26807262522, 24447.95396570304, 31437.36549993358, 39776.27188878084, 45532.13919012665, 49122.83234525635, 55083.92976987113, 55294.22976987113, 62985.12394775287, 63195.423947752875, 71222.5271421765},
				{3144.3358903842322, 5100.757676539876, 8450.32369019307, 12603.000981216994, 13529.686457113232, 17545.603758459045, 21590.839648843277, 24626.50417294704, 31645.234296216, 39776.27188878084, 45561.457779165066, 49168.12956532071, 55158.545578973906, 55368.84557897391, 63089.05834589407, 63299.35834589407, 71222.5271421765},
				{3173.6544794226556, 5146.054896604241, 8524.939499295859, 12722.914010384146, 13633.620855254443, 17678.856745638677, 21753.411225061333, 24805.054380191035, 31853.10309249842, 39776.27188878084, 45590.77636820349, 49213.426785385076, 55233.161388076696, 55443.4613880767, 63192.99274403529, 63403.292744035294, 71222.5271421765},
				{3202.9730684610786, 5191.352116668604, 8599.555308398645, 12842.827039551295, 13737.555253395652, 17812.10973281831, 21915.982801279388, 24983.60458743503, 32060.971888780838, 39776.27188878084, 45620.09495724192, 49258.72400544945, 55307.77719717949, 55518.07719717949, 63296.9271421765, 63507.2271421765, 71222.5271421765},
			},
			SigTs: [4][]float64{
				{17678.856745638677, 21753.411225061333, 24368.26827986922, 24626.50417294704, 29001.95309249842},
				{17812.10973281831, 21915.982801279388, 24205.69670365116, 24447.95396570304, 29209.82188878084},
				{17412.35077127941, 21428.26807262522, 24693.41143230533, 24983.60458743503, 28586.215499933583},
				{17545.603758459045, 21590.839648843277, 24530.839856087274, 24805.054380191035, 28794.084296216002},
			},
			Idle: []float64{39776.27188878084, 71222.5271421765},
		}},
	}
	for _, c := range cases {
		times, images, _ := runShapes(t, c.pairs, nil)
		if images != wantImages {
			t.Errorf("pairs=%d: partition images %#x, want %#x", c.pairs, images, wantImages)
		}
		if !reflect.DeepEqual(times, c.times) {
			t.Errorf("pairs=%d: golden mismatch; got\n%#v", c.pairs, times)
		}
	}
}
