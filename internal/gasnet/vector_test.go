package gasnet

import (
	"reflect"
	"testing"

	"cafshmem/internal/pgas"
)

// contigPieces is d as the Contig descriptors of its runs or elements, in
// order: what a runtime issued for d when the conduit took contiguous
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

// vectorOut is what PE 0 of one run of TestRMAShapesMatchContigSequence
// observes, and what its two targets hold afterwards.
type vectorOut struct {
	Clocks []float64 // after every op and completion
	Got    []byte    // what the gets read
	Words  []uint64  // every word of both targets' regions
	Stamps []float64 // and its visibility timestamp
}

// TestRMAShapesMatchContigSequence: a Runs and a Strided descriptor through RMA
// cost, book and land exactly what the sequence of their runs' or elements'
// Contig descriptors does — blocking puts and gets and implicit-handle puts,
// toward an inter-node and an intra-node target, under the fractional profile
// where a regrouped addition shows in the last bit — with 1 and 16 active
// pairs per node.
func TestRMAShapesMatchContigSequence(t *testing.T) {
	seg := Seg{Off: 64, Size: 4096}
	const x, i = 16, 1 // PE 0's inter-node and intra-node partners
	src := make([]byte, 256)
	for k := range src {
		src[k] = pattern(0, k)
	}
	got := make([]byte, 104)
	ops := []struct {
		d   pgas.RMA
		nbi bool
	}{
		{d: pgas.RMA{Shape: pgas.Runs, Target: x, Offs: []int64{0, 48, 16, 200}, Unit: 16, Local: src[:64]}},
		{d: pgas.RMA{Shape: pgas.Strided, Target: i, Off: 512, Stride: 24, Unit: 8, Local: src[64:104]}},
		{d: pgas.RMA{Shape: pgas.Runs, Target: x, Off: 1024, Offs: []int64{0, 40, 16}, Unit: 16, Local: src[104:152]}, nbi: true},
		{d: pgas.RMA{Shape: pgas.Strided, Target: i, Off: 2048, Stride: 40, Unit: 8, Local: src[152:200]}, nbi: true},
		{d: pgas.RMA{Get: true, Shape: pgas.Runs, Target: x, Offs: []int64{0, 48, 16, 200}, Unit: 16, Local: got[:64]}},
		{d: pgas.RMA{Get: true, Shape: pgas.Strided, Target: i, Off: 512, Stride: 24, Unit: 8, Local: got[64:]}},
	}
	run := func(pairs int, pieces bool) (out vectorOut) {
		w, err := NewWorld(Config{Machine: shapesMachine(t), Profile: shapesProfile, Options: pgas.Options{ActivePairs: pairs}}, shapesPEs)
		if err != nil {
			t.Fatal(err)
		}
		defer w.PgasWorld().Close()
		clear(got)
		if err := w.PgasWorld().Run(func(p *pgas.PE) {
			if p.ID != 0 {
				return
			}
			ep := w.Attach(p)
			for _, op := range ops {
				ds := []pgas.RMA{op.d}
				if pieces {
					ds = contigPieces(op.d)
				}
				for _, d := range ds {
					ep.RMA(&d, seg, op.nbi)
				}
				out.Clocks = append(out.Clocks, ep.Clock().Now())
				if op.nbi {
					ep.WaitSyncImage(op.d.Target)
				} else {
					ep.WaitSyncAll()
				}
				out.Clocks = append(out.Clocks, ep.Clock().Now())
			}
		}); err != nil {
			t.Fatal(err)
		}
		out.Got = append([]byte(nil), got...)
		for _, target := range []int{x, i} {
			for off := seg.Off; off < seg.Off+seg.Size; off += 8 {
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
