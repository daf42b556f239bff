package mpi3

import (
	"bytes"
	"hash/fnv"
	"reflect"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// One program over MPI_Put and MPI_Get under every synchronisation mode the
// package has — per-target locks (shared and exclusive), lock_all with flush
// and flush_all, fences — on two windows whose epochs must stay apart, pinned
// as absolute virtual times and as what the windows contain afterwards.

// The world is two Stampede nodes, the second barely populated: ranks 0-15 on
// node 0, ranks 16 and 17 on node 1. Four ranks drive traffic, each toward its
// inter-node partner (me^16) and its intra-node partner (me^1); the other
// fourteen only attend the collectives.
const shapesRanks = 18

var shapesActive = [4]int{0, 1, 16, 17}

// shapesProfile is MVAPICH2-X MPI-3 with an overhead, latencies and a window
// surcharge that are not whole nanoseconds. Every built-in profile's are, and
// whole numbers add to a clock exactly in any order; only with fractions does
// charging injection + surcharge in one step differ from charging them one
// after the other in the last bit, and telling the two apart is this golden's
// job.
const shapesProfile = "MVAPICH2-X-MPI3-fractional"

func shapesMachine(t *testing.T) *fabric.Machine {
	m := fabric.Stampede()
	mv2, err := m.Profile(fabric.ProfMV2XMPI3)
	if err != nil {
		t.Fatal(err)
	}
	p := *mv2
	p.Name = shapesProfile
	p.OverheadNs += 0.3
	p.LatencyNs += 0.7
	p.IntraLatencyNs += 0.1
	p.ContentionLatencyNs += 0.01
	p.WindowSyncNs += 0.9
	m.AddProfile(&p)
	return m
}

// shapesOut is what one rank of shapesProgram reports: its clock at each
// checkpoint and the FNV-1a of its two windows at the end.
type shapesOut struct {
	Clocks []float64
	Image  uint64
}

// pattern is the payload byte rank me stores at index i of its source buffer.
func pattern(me, i int) byte { return byte(me*31 + i*7 + 1) }

func shapesProgram(t *testing.T, pr *Proc) shapesOut {
	var g shapesOut
	winA := pr.WinAllocate(4096)
	winB := pr.WinAllocate(1024)
	me := pr.Rank()
	cp := func() { g.Clocks = append(g.Clocks, pr.Clock().Now()) }
	class := -1
	for c, r := range shapesActive {
		if r == me {
			class = c
		}
	}
	if class < 0 {
		pr.Barrier()
		cp()
		for k := 0; k < 3; k++ {
			pr.Fence(winB)
			cp()
		}
		return g
	}
	// Sizes differ by rank so that no two active ranks keep the same clock.
	n := func(base int) int { return base + 8*class }
	x, i := me^16, me^1
	buf := make([]byte, 1024)
	for k := range buf {
		buf[k] = pattern(me, k)
	}
	got := make([]byte, 1024)
	same := func(what string, got, want []byte) {
		if !bytes.Equal(got, want) {
			t.Errorf("rank %d: %s read back %v, want %v", me, what, got, want)
		}
	}

	// Passive target, one target at a time: unlock completes the put.
	pr.Lock(LockShared, x, winA)
	pr.Put(winA, x, 0, buf[:n(72)])
	pr.Unlock(x, winA)
	cp()
	pr.Lock(LockExclusive, i, winA)
	pr.Put(winA, i, 2048, buf[:n(40)])
	pr.Get(winA, i, 2048, got[:n(40)])
	cp()
	same("Get under an exclusive lock", got[:n(40)], buf[:n(40)])
	pr.Unlock(i, winA)
	cp()

	// Shared epochs on both windows at once. A flush completes its window's
	// whole epoch, whatever target it names, and nothing of the other window's.
	pr.LockAll(winA)
	pr.LockAll(winB)
	pr.Put(winA, x, 128, buf[100:100+n(128)])
	pr.Put(winA, i, 2048+128, buf[:n(8)])
	pr.Put(winB, x, 0, buf[:n(300)])
	pr.Flush(i, winA) // waits for the put to x as well
	cp()
	pr.FlushAll(winA) // nothing left on A
	cp()
	pr.FlushAll(winB) // B keeps its own horizon: with 16 pairs its put is still in flight
	cp()
	pr.Put(winB, i, 512, buf[:n(24)])
	pr.Get(winA, x, 128, got[:n(128)])
	cp()
	same("Get inter", got[:n(128)], buf[100:100+n(128)])
	pr.Get(winB, i, 512, got[:n(24)])
	cp()
	same("Get intra", got[:n(24)], buf[:n(24)])
	pr.UnlockAll(winB)
	cp()
	pr.Put(winA, x, 1024, buf[:n(600)])
	pr.UnlockAll(winA)
	cp()
	pr.Barrier()
	cp()

	// Active target: a fence closes one epoch on every rank and opens the next.
	pr.Fence(winB)
	cp()
	pr.Put(winB, x, 400, buf[200:200+n(56)])
	pr.Fence(winB)
	cp()
	pr.Get(winB, x, 400, got[:n(56)])
	same("Get after a fence", got[:n(56)], buf[200:200+n(56)])
	pr.Fence(winB)
	cp()

	h := fnv.New64a()
	h.Write(pr.Pgas().LocalBytes(winA.Off(), winA.Size()))
	h.Write(pr.Pgas().LocalBytes(winB.Off(), winB.Size()))
	g.Image = h.Sum64()
	return g
}

// shapesTimes is every virtual time one run of shapesProgram pins: the active
// ranks' checkpoints and an idle rank's (the barrier and fence exits).
type shapesTimes struct {
	Clocks [4][]float64
	Idle   []float64
}

// runShapes runs shapesProgram with the given number of active pairs per node.
func runShapes(t *testing.T, pairs int) (times shapesTimes, images [4]uint64) {
	t.Helper()
	w, err := NewWorld(Config{Machine: shapesMachine(t), Profile: shapesProfile}, shapesRanks)
	if err != nil {
		t.Fatal(err)
	}
	defer w.PgasWorld().Close()
	w.PgasWorld().SetActivePairsPerNode(pairs)
	var outs [shapesRanks]shapesOut
	if err := w.PgasWorld().Run(func(p *pgas.PE) {
		outs[p.ID] = shapesProgram(t, w.Attach(p))
	}); err != nil {
		t.Fatal(err)
	}
	for c, r := range shapesActive {
		times.Clocks[c], images[c] = outs[r].Clocks, outs[r].Image
	}
	times.Idle = outs[2].Clocks
	for r := 3; r < 16; r++ {
		if !reflect.DeepEqual(outs[r], outs[2]) {
			t.Errorf("idle rank %d reports %+v, rank 2 %+v", r, outs[r], outs[2])
		}
	}
	return times, images
}

// TestMPI3ShapesGolden pins the program above with 1 and with 16 active pairs
// per node. The constants were captured on the tree in which Put and Get
// still priced, wrote and kept the epoch's horizon by hand (PR 19); charging
// the window surcharge in an Advance of its own fails it.
func TestMPI3ShapesGolden(t *testing.T) {
	// What lands does not depend on what it costs.
	wantImages := [4]uint64{0xbbe7c4a072c9252d, 0x8653b468662d90f5, 0xe641864bc053552d, 0xf72e99b24815e0d5}
	cases := []struct {
		pairs int
		times shapesTimes
	}{
		{pairs: 1, times: shapesTimes{
			Clocks: [4][]float64{
				{67387.63333333333, 70279.43333333332, 71641.83333333331, 75809.09259259257, 76490.29259259257, 77171.49259259256, 81961.39629629627, 83485.19629629627, 84847.59629629627, 88021.80740740737, 98661.02962962959, 110208.12962962958, 123470.74444444438, 139115.25925925918},
				{67389.1148148148, 70282.5148148148, 71644.9148148148, 75815.937037037, 76497.137037037, 77178.337037037, 81970.52222222218, 83495.12222222218, 84857.52222222218, 88033.21481481477, 98661.02962962959, 110208.12962962958, 123470.74444444438, 139115.25925925918},
				{67390.5962962963, 70285.5962962963, 71647.99629629629, 75822.78148148148, 76503.98148148147, 77185.18148148147, 81979.64814814813, 83505.04814814813, 84867.44814814812, 88044.62222222218, 98661.02962962959, 110208.12962962958, 123470.74444444438, 139115.25925925918},
				{67392.07777777777, 70288.67777777778, 71651.07777777777, 75829.6259259259, 76510.82592592589, 77192.02592592589, 81988.77407407404, 83514.97407407404, 84877.37407407403, 88056.02962962959, 98661.02962962959, 110208.12962962958, 123470.74444444438, 139115.25925925918},
			},
			Idle: []float64{98661.02962962959, 110208.12962962958, 123470.74444444438, 139115.25925925918},
		}},
		{pairs: 16, times: shapesTimes{
			Clocks: [4][]float64{
				{69246.99531548808, 75459.62250478093, 76822.02250478092, 82695.81682133382, 83377.01682133382, 85290.46682133383, 93787.09442787828, 98512.35258466614, 99874.75258466613, 106992.54688040019, 118361.24652348628, 129908.34652348627, 145061.90242958412, 164172.508335682},
				{69280.05590609787, 75528.38853324928, 76890.78853324927, 82848.55674995104, 83529.75674995103, 85443.20674995104, 93990.74766603457, 98733.85854175172, 100096.25854175171, 107247.11342809556, 118361.24652348628, 129908.34652348627, 145061.90242958412, 164172.508335682},
				{69313.11649670766, 75597.15456171766, 76959.55456171765, 83001.29667856828, 83682.49667856828, 85595.94667856829, 94194.40090419089, 98955.36449883731, 100317.7644988373, 107501.67997579095, 118361.24652348628, 129908.34652348627, 145061.90242958412, 164172.508335682},
				{69346.17708731744, 75665.920590186, 77028.32059018599, 83154.03660718548, 83835.23660718548, 85748.68660718549, 94398.05414234716, 99176.87045592286, 100539.27045592286, 107756.24652348628, 118361.24652348628, 129908.34652348627, 145061.90242958412, 164172.508335682},
			},
			Idle: []float64{118361.24652348628, 129908.34652348627, 145061.90242958412, 164172.508335682},
		}},
	}
	for _, c := range cases {
		times, images := runShapes(t, c.pairs)
		if images != wantImages {
			t.Errorf("pairs=%d: partition images %#x, want %#x", c.pairs, images, wantImages)
		}
		if !reflect.DeepEqual(times, c.times) {
			t.Errorf("pairs=%d: golden mismatch; got\n%#v", c.pairs, times)
		}
	}
}
