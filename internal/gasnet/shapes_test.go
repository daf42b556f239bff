package gasnet

import (
	"bytes"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// One program over every entry point of the extended API that moves bytes to
// or from a remote segment, pinned as absolute virtual times: what each call
// charges the initiator, when its completion point lets it go, when a signal
// word becomes visible at its consumer, how many ops the implicit set holds,
// and what the partitions contain afterwards.

// The world is two Stampede nodes, the second barely populated: PEs 0-15 on
// node 0, PEs 16 and 17 on node 1. Four PEs drive traffic, each toward its
// inter-node partner (me^16) and its intra-node partner (me^1); the other
// fourteen only attend the collectives.
const shapesPEs = 18

var shapesActive = [4]int{0, 1, 16, 17}

const shapesHandler = 7

// shapesOut is what one PE of shapesProgram reports.
type shapesOut struct {
	Clocks      []float64 // the PE's clock at each checkpoint
	SigTs       []float64 // when each of its five signal words became visible
	Outstanding []int     // NBIOutstanding at each probe
	Image       uint64    // FNV-1a of its data and signal regions at the end
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
	probe := func() { g.Outstanding = append(g.Outstanding, ep.NBIOutstanding()) }
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
	// An explicit handle: outside the implicit set, overlapped with compute.
	h := ep.PutNB(x, seg, 128, buf[100:100+n(128)])
	probe()
	ep.Clock().Advance(150.5)
	ep.WaitSync(h)
	cp()
	// Implicit handles: both transfers serialise on the endpoint's one pipe.
	ep.PutNBI(x, seg, 512, buf[:n(600)])
	ep.PutNBI(i, seg, 2048+128, buf[:n(24)])
	probe()
	ep.WaitSyncImage(i)
	cp()
	probe()
	ep.WaitSyncAll()
	cp()
	probe()
	// Signal puts: the blocking one is (now + delivery) + handler, the
	// nonblocking one wire-out + (delivery + handler).
	ep.PutSignal(x, seg, 1200, buf[:n(56)], sig, 0, int64(me)+1)
	ep.WaitSyncImage(x)
	cp()
	ep.PutSignalNBI(x, seg, 1300, buf[56:56+n(64)], sig, 1, int64(me)+1)
	ep.WaitSyncImage(x)
	cp()
	ep.PutSignal(i, seg, 0, nil, sig, 2, int64(me)+1) // the signal alone
	ep.PutSignalNBI(i, seg, 2048+256, buf[:n(8)], sig, 3, int64(me)+1)
	probe()
	ep.WaitSyncAll()
	cp()
	// A long active message: the payload moves as a Put, then the handler
	// stores the fifth signal word.
	ep.RequestLong(x, shapesHandler, seg, 1400, buf[:n(48)], sig.Off+4*8, int64(me)+1)
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
	h1, err := ep.GetNB(x, seg, 128, whole)
	if err != nil {
		t.Errorf("PE %d: in-range get_nb: %v", me, err)
	}
	// 20 bytes of the request fit before the region ends.
	h2, err := ep.GetNB(i, seg, seg.Size-20, part)
	var pe *PartialError
	if !errors.As(err, &pe) || pe.Transferred != 20 || pe.Requested != n(50) {
		t.Errorf("PE %d: overflowing get_nb: err = %v, want 20 of %d bytes", me, err, n(50))
	}
	ep.WaitSync(h1)
	cp()
	ep.WaitSync(h2)
	cp()
	same("GetNB whole", whole, buf[100:100+n(128)])
	same("GetNB partial", part[:20], buf[n(40)-20:n(40)])
	same("GetNB unissued", part[20:], make([]byte, n(50)-20))
	ep.GetNBI(x, seg, 512, got[:n(600)])
	ep.GetNBI(i, seg, 2048+128, got[700:700+n(24)])
	probe()
	ep.WaitSyncImage(x)
	cp()
	probe()
	ep.WaitSyncAll()
	cp()
	probe()
	same("GetNBI inter", got[:n(600)], buf[:n(600)])
	same("GetNBI intra", got[700:700+n(24)], buf[:n(24)])
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

// runShapes runs shapesProgram with the given number of active pairs per node.
func runShapes(t *testing.T, pairs int) (times shapesTimes, outstanding [4][]int, images [4]uint64) {
	t.Helper()
	w, err := NewWorld(Config{Machine: shapesMachine(t), Profile: shapesProfile}, shapesPEs)
	if err != nil {
		t.Fatal(err)
	}
	defer w.PgasWorld().Close()
	w.PgasWorld().SetActivePairsPerNode(pairs)
	w.RegisterHandler(shapesHandler, func(tok *Token, _ []byte, args []int64) {
		tok.WriteU64(args[0], uint64(args[1]))
	})
	var outs [shapesPEs]shapesOut
	if err := w.PgasWorld().Run(func(p *pgas.PE) {
		outs[p.ID] = shapesProgram(t, w.Attach(p))
	}); err != nil {
		t.Fatal(err)
	}
	for c, pe := range shapesActive {
		times.Clocks[c], times.SigTs[c] = outs[pe].Clocks, outs[pe].SigTs
		outstanding[c], images[c] = outs[pe].Outstanding, outs[pe].Image
	}
	times.Idle = outs[2].Clocks
	for pe := 3; pe < 16; pe++ {
		if !reflect.DeepEqual(outs[pe], outs[2]) {
			t.Errorf("idle PE %d reports %+v, PE 2 %+v", pe, outs[pe], outs[2])
		}
	}
	return times, outstanding, images
}

// TestGASNetShapesGolden pins the program above with 1 and with 16 active
// pairs per node. The constants were captured on the tree in which every
// entry point still priced, reserved, wrote and booked by hand (PR 19);
// regrouping either signal put's delivery and handler terms fails it.
func TestGASNetShapesGolden(t *testing.T) {
	// The implicit set never holds an explicit handle, and each completion
	// point drains what its name says.
	wantOutstanding := []int{0, 2, 1, 0, 1, 2, 1, 0}
	// What lands does not depend on what it costs.
	wantImages := [4]uint64{0xb934690b935e5c24, 0x6b3d61263f4f0677, 0x412aa8f64e78da74, 0x4c35d1b365679987}
	cases := []struct {
		pairs int
		times shapesTimes
	}{
		{pairs: 1, times: shapesTimes{
			Clocks: [4][]float64{
				{1514.211009174312, 2028.6110091743121, 3553.0972477064224, 4276.197247706423, 5164.188990825689, 7577.832110091744, 9992.943119266056, 11616.943119266056, 14237.950458715597, 21984.47247706422, 24789.383486238534, 25603.883486238534, 28419.069724770645, 28629.369724770644, 31531.16146788991, 31741.46146788991, 39472.37247706422},
				{1515.678899082569, 2030.8788990825688, 3556.8330275229364, 4280.733027522937, 5169.392660550459, 7584.503669724771, 10001.08256880734, 11625.88256880734, 14248.357798165138, 21984.47247706422, 24790.85137614679, 25606.15137614679, 28422.80550458716, 28633.105504587158, 31536.36513761468, 31746.66513761468, 39472.37247706422},
				{1517.1467889908258, 2033.1467889908258, 3560.5688073394504, 4285.268807339451, 5174.596330275231, 7591.175229357799, 10009.222018348624, 11634.822018348625, 14258.765137614679, 21984.47247706422, 24792.31926605505, 25608.419266055047, 28426.541284403673, 28636.841284403672, 31541.568807339452, 31751.86880733945, 39472.37247706422},
				{1518.6146788990827, 2035.414678899083, 3564.3045871559634, 4289.804587155964, 5179.8, 7597.846788990825, 10017.361467889908, 11643.761467889908, 14269.17247706422, 21984.47247706422, 24793.787155963302, 25610.687155963304, 28430.277064220187, 28640.577064220186, 31546.772477064223, 31757.072477064223, 39472.37247706422},
			},
			SigTs: [4][]float64{
				{7591.175229357799, 10009.222018348624, 11413.18256880734, 11625.88256880734, 14258.765137614679},
				{7597.846788990825, 10017.361467889908, 11405.043119266056, 11616.943119266056, 14269.17247706422},
				{7577.832110091744, 9992.943119266056, 11429.461467889909, 11643.761467889908, 14237.950458715597},
				{7584.503669724771, 10001.08256880734, 11421.322018348625, 11634.822018348625, 14248.357798165138},
			},
			Idle: []float64{21984.47247706422, 39472.37247706422},
		}},
		{pairs: 16, times: shapesTimes{
			Clocks: [4][]float64{
				{3115.017301345809, 5055.460456475512, 8375.707881090282, 12483.087952049842, 13425.75205897202, 17412.35077127941, 21428.26807262522, 24447.95396570304, 28586.215499933583, 36925.121888780835, 42680.989190126646, 46271.68234525635, 52232.77976987112, 52443.079769871125, 60133.973947752864, 60344.27394775287, 68371.3771421765},
				{3144.3358903842322, 5100.757676539876, 8450.32369019307, 12603.000981216994, 13529.686457113232, 17545.603758459045, 21590.839648843277, 24626.50417294704, 28794.084296216002, 36925.121888780835, 42710.30777916507, 46316.97956532072, 52307.39557897391, 52517.695578973915, 60237.90834589407, 60448.208345894076, 68371.3771421765},
				{3173.6544794226556, 5146.054896604241, 8524.939499295859, 12722.914010384146, 13633.620855254443, 17678.856745638677, 21753.411225061333, 24805.054380191035, 29001.95309249842, 36925.121888780835, 42739.62636820349, 46362.276785385075, 52382.0113880767, 52592.311388076705, 60341.8427440353, 60552.1427440353, 68371.3771421765},
				{3202.9730684610786, 5191.352116668604, 8599.555308398645, 12842.827039551295, 13737.555253395652, 17812.10973281831, 21915.982801279388, 24983.60458743503, 29209.82188878084, 36925.121888780835, 42768.94495724191, 46407.57400544944, 52456.62719717948, 52666.92719717948, 60445.77714217649, 60656.077142176495, 68371.3771421765},
			},
			SigTs: [4][]float64{
				{17678.856745638677, 21753.411225061333, 24368.26827986922, 24626.50417294704, 29001.95309249842},
				{17812.10973281831, 21915.982801279388, 24205.69670365116, 24447.95396570304, 29209.82188878084},
				{17412.35077127941, 21428.26807262522, 24693.41143230533, 24983.60458743503, 28586.215499933583},
				{17545.603758459045, 21590.839648843277, 24530.839856087274, 24805.054380191035, 28794.084296216002},
			},
			Idle: []float64{36925.121888780835, 68371.3771421765},
		}},
	}
	for _, c := range cases {
		times, outstanding, images := runShapes(t, c.pairs)
		for k, got := range outstanding {
			if !reflect.DeepEqual(got, wantOutstanding) {
				t.Errorf("pairs=%d PE %d: NBIOutstanding probes %v, want %v", c.pairs, shapesActive[k], got, wantOutstanding)
			}
		}
		if images != wantImages {
			t.Errorf("pairs=%d: partition images %#x, want %#x", c.pairs, images, wantImages)
		}
		if !reflect.DeepEqual(times, c.times) {
			t.Errorf("pairs=%d: golden mismatch; got\n%#v", c.pairs, times)
		}
	}
}
