package himeno

import (
	"math"
	"math/rand"
	"testing"
)

// indexedSweep is the kernel slab.sweep replaced, kept as its oracle: every
// operand addressed as i + nx*(j + rows*k), the residual accumulated point by
// point in (k, j, i) order.
func indexedSweep(s slab, next, cur []float32, jlo, jhi int, gosa float64) float64 {
	at := func(i, j, k int) int { return i + s.nx*(j+s.rows*k) }
	for k := 1; k < s.nz-1; k++ {
		for j := jlo; j <= jhi; j++ {
			gj := s.lo + j - 1
			if gj == 0 || gj == s.ny-1 {
				continue
			}
			for i := 1; i < s.nx-1; i++ {
				c0 := cur[at(i, j, k)]
				s0 := cur[at(i+1, j, k)] + cur[at(i-1, j, k)] +
					cur[at(i, j+1, k)] + cur[at(i, j-1, k)] +
					cur[at(i, j, k+1)] + cur[at(i, j, k-1)]
				ss := s0*a4 - c0
				gosa += float64(ss) * float64(ss)
				next[at(i, j, k)] = c0 + omega*ss
			}
		}
	}
	return gosa
}

// The row-sliced sweep against the indexed one, bit for bit in the field and
// the residual: random grids, every image's slab of every decomposition (the
// slabs holding the fixed global planes j = 0 and ny-1 included, and slabs
// shorter than the symmetric allocation), swept whole as the blocking
// schedule does and boundary planes first as the two overlap schedules do.
func TestSweepMatchesIndexedKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		nx, ny, nz := 3+rng.Intn(18), 3+rng.Intn(18), 3+rng.Intn(18)
		for images := 1; images <= ny; images++ {
			nyAlloc := planeCount(ny, images, 1)
			for me := 1; me <= images; me++ {
				lo, hi := decompose(ny, images, me)
				nyLoc := hi - lo
				s := slab{nx: nx, rows: nyAlloc + 2, nz: nz, lo: lo, ny: ny}
				cur := make([]float32, nx*s.rows*nz)
				for i := range cur {
					cur[i] = rng.Float32()*2 - 1
				}
				for _, split := range []bool{false, true} {
					ranges := [][2]int{{1, nyLoc}}
					if split {
						ranges = [][2]int{{1, 1}}
						if nyLoc > 1 {
							ranges = append(ranges, [2]int{nyLoc, nyLoc})
						}
						if nyLoc > 2 {
							ranges = append(ranges, [2]int{2, nyLoc - 1})
						}
					}
					want, got := append([]float32(nil), cur...), append([]float32(nil), cur...)
					wantGosa, gotGosa := 0.25, 0.25
					for _, r := range ranges {
						wantGosa = indexedSweep(s, want, cur, r[0], r[1], wantGosa)
						gotGosa = s.sweep(got, cur, r[0], r[1], gotGosa)
					}
					if math.Float64bits(gotGosa) != math.Float64bits(wantGosa) {
						t.Fatalf("%dx%dx%d, image %d of %d, split %v: gosa %v, indexed kernel %v",
							nx, ny, nz, me, images, split, gotGosa, wantGosa)
					}
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%dx%dx%d, image %d of %d, split %v: next[%d] = %v, indexed kernel %v",
								nx, ny, nz, me, images, split, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
