package mpi3

import (
	"reflect"
	"testing"

	"cafshmem/internal/pgas"
)

// contigPieces is d as the Contig descriptors of its runs or elements, in
// order: what a runtime issued for d when MPI_Put and MPI_Get took contiguous
// descriptors only.
func contigPieces(d pgas.RMA) []pgas.RMA {
	var out []pgas.RMA
	for k := 0; k*d.Unit < len(d.Local); k++ {
		off := d.Off + int64(k)*d.Stride
		if d.Shape == pgas.Runs {
			off = d.Off + d.Offs[k]
		}
		out = append(out, pgas.RMA{Get: d.Get, Target: d.Target, Off: off, Local: d.Local[k*d.Unit : (k+1)*d.Unit]})
	}
	return out
}

// vectorOut is what rank 0 of one run of TestRMAShapesMatchContigSequence
// observes, and what its two targets' windows hold afterwards.
type vectorOut struct {
	Clocks []float64 // after every op and after the flush of its horizon
	Got    []byte    // what the gets read
	Words  []uint64  // every word of both targets' windows
	Stamps []float64 // and its visibility timestamp
}

// TestRMAShapesMatchContigSequence: a Runs and a Strided descriptor through RMA
// cost, book on the epoch's horizon and land exactly what the sequence of
// their runs' or elements' Contig descriptors does — puts and gets toward an
// inter-node and an intra-node target, under the fractional profile where a
// regrouped addition shows in the last bit — with 1 and 16 active pairs per
// node.
func TestRMAShapesMatchContigSequence(t *testing.T) {
	const x, i = 16, 1 // rank 0's inter-node and intra-node partners
	src := make([]byte, 256)
	for k := range src {
		src[k] = pattern(0, k)
	}
	got := make([]byte, 104)
	ops := []pgas.RMA{
		{Shape: pgas.Runs, Target: x, Offs: []int64{0, 48, 16, 200}, Unit: 16, Local: src[:64]},
		{Shape: pgas.Strided, Target: i, Off: 512, Stride: 24, Unit: 8, Local: src[64:104]},
		{Shape: pgas.Runs, Target: i, Off: 1024, Offs: []int64{0, 40, 16}, Unit: 16, Local: src[104:152]},
		{Shape: pgas.Strided, Target: x, Off: 2048, Stride: 40, Unit: 8, Local: src[152:200]},
		{Get: true, Shape: pgas.Runs, Target: x, Offs: []int64{0, 48, 16, 200}, Unit: 16, Local: got[:64]},
		{Get: true, Shape: pgas.Strided, Target: i, Off: 512, Stride: 24, Unit: 8, Local: got[64:]},
	}
	run := func(pairs int, pieces bool) (out vectorOut) {
		w, err := NewWorld(Config{Machine: shapesMachine(t), Profile: shapesProfile, Options: pgas.Options{ActivePairs: pairs}}, shapesRanks)
		if err != nil {
			t.Fatal(err)
		}
		defer w.PgasWorld().Close()
		clear(got)
		var win *Win
		if err := w.PgasWorld().Run(func(p *pgas.PE) {
			pr := w.Attach(p)
			wn := pr.WinAllocate(4096)
			if pr.Rank() != 0 {
				return
			}
			win = wn
			pr.LockAll(win)
			for _, op := range ops {
				ds := []pgas.RMA{op}
				if pieces {
					ds = contigPieces(op)
				}
				for _, d := range ds {
					pr.RMA(win, &d)
				}
				out.Clocks = append(out.Clocks, pr.Clock().Now())
				pr.FlushAll(win)
				out.Clocks = append(out.Clocks, pr.Clock().Now())
			}
			pr.UnlockAll(win)
		}); err != nil {
			t.Fatal(err)
		}
		out.Got = append([]byte(nil), got...)
		for _, target := range []int{x, i} {
			for off := win.Off(); off < win.Off()+win.Size(); off += 8 {
				v, ts := w.PgasWorld().ReadUint64Ts(target, off)
				out.Words, out.Stamps = append(out.Words, v), append(out.Stamps, ts)
			}
		}
		return out
	}
	for _, pairs := range []int{1, 16} {
		whole, parts := run(pairs, false), run(pairs, true)
		if !reflect.DeepEqual(whole, parts) {
			t.Errorf("pairs=%d: one descriptor per op and one per run or element differ:\n%+v\n%+v", pairs, whole, parts)
		}
		for k, b := range whole.Got {
			if b != src[k] {
				t.Errorf("pairs=%d: get byte %d = %d, want %d", pairs, k, b, src[k])
				break
			}
		}
	}
}
