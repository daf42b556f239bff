// Monte-Carlo pi: an embarrassingly parallel estimation using CAF
// collectives (co_sum) and atomics — the Table II features with direct
// OpenSHMEM mappings.
//
// Run with:
//
//	go run ./examples/montecarlo
package main

import (
	"fmt"
	"log"
	"math"

	"cafshmem/internal/caf"
)

func main() {
	opts := caf.UHCAFOverMV2XSHMEM()
	const images = 16
	const perImage = 200000

	var pi float64
	err := caf.Run(images, opts, func(img *caf.Image) {
		// Per-image deterministic xorshift stream.
		s := uint64(img.ThisImage()) * 0x9e3779b97f4a7c15
		rnd := func() float64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return float64(s>>11) / float64(1<<53)
		}
		hits := int64(0)
		for i := 0; i < perImage; i++ {
			x, y := rnd(), rnd()
			if x*x+y*y <= 1 {
				hits++
			}
		}

		// Progress heartbeat through an atomic counter at image 1
		// (atomic_fetch_add -> shmem_fadd).
		done := caf.NewAtomicVar(img)
		done.Add(1, 1)

		// co_sum of the hit counts to every image, in place.
		total := []int64{hits}
		caf.CoSum(img, total, 0)
		est := 4 * float64(total[0]) / float64(images*perImage)
		if img.ThisImage() == 1 {
			if done.Ref(1) != int64(images) {
				panic("heartbeat lost")
			}
			pi = est
		}
		img.SyncAll()
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pi ~= %.5f (error %.5f) from %d samples on %d images\n",
		pi, math.Abs(pi-math.Pi), images*perImage, images)
	if math.Abs(pi-math.Pi) > 0.01 {
		log.Fatal("estimate implausibly far off")
	}
}
