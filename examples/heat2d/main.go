// Heat2D: a 2-D heat-diffusion solver over the CAF runtime, decomposed in
// the second dimension, with halo exchange using coarray array sections —
// the multi-dimensional strided communication pattern the paper's
// 2dim_strided algorithm exists for (§IV-C).
//
// Run with:
//
//	go run ./examples/heat2d
package main

import (
	"fmt"
	"log"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
)

const (
	nx     = 64 // contiguous dimension
	nyLoc  = 16 // per-image columns
	images = 8
	steps  = 200
	alpha  = 0.1
)

func main() {
	opts := caf.UHCAFOverCraySHMEM(fabric.CrayXC30()) // hardware iput: 2dim pays off
	var finalMax float64

	err := caf.Run(images, opts, func(img *caf.Image) {
		me := img.ThisImage()
		// Local field (nx, nyLoc+2): columns 0 and nyLoc+1 are ghosts.
		u := caf.Allocate[float64](img, nx, nyLoc+2)
		cur := make([]float64, u.Len())
		at := func(i, j int) int { return i + nx*j }

		// A hot spot in the middle image.
		if me == images/2 {
			for i := nx / 4; i < 3*nx/4; i++ {
				cur[at(i, nyLoc/2)] = 100
			}
		}
		u.SetSlice(cur)
		img.SyncAll()

		next := make([]float64, len(cur))
		for s := 0; s < steps; s++ {
			for j := 1; j <= nyLoc; j++ {
				for i := 1; i < nx-1; i++ {
					next[at(i, j)] = cur[at(i, j)] + alpha*(cur[at(i+1, j)]+cur[at(i-1, j)]+
						cur[at(i, j+1)]+cur[at(i, j-1)]-4*cur[at(i, j)])
				}
			}
			cur, next = next, cur
			u.SetSlice(cur)
			img.SyncAll()

			// Halo exchange: interior boundary columns travel as coarray
			// sections (contiguous pencils — the matrix-oriented case).
			col := func(j int) []float64 {
				out := make([]float64, nx)
				copy(out, cur[at(0, j):at(0, j)+nx])
				return out
			}
			if me > 1 {
				u.Put(me-1, caf.Section{{Lo: 0, Hi: nx - 1, Step: 1}, {Lo: nyLoc + 1, Hi: nyLoc + 1, Step: 1}}, col(1))
			}
			if me < images {
				u.Put(me+1, caf.Section{{Lo: 0, Hi: nx - 1, Step: 1}, {Lo: 0, Hi: 0, Step: 1}}, col(nyLoc))
			}
			img.SyncAll()
			copy(cur, u.Slice())
		}

		// Global maximum temperature via co_max.
		localMax := 0.0
		for j := 1; j <= nyLoc; j++ {
			for i := 0; i < nx; i++ {
				if cur[at(i, j)] > localMax {
					localMax = cur[at(i, j)]
				}
			}
		}
		gmax := []float64{localMax}
		caf.CoMax(img, gmax, 0)
		if me == 1 {
			finalMax = gmax[0]
		}
		img.SyncAll()
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heat2d: %d images, %d steps, final max temperature %.4f (diffused from 100)\n",
		images, steps, finalMax)
	if finalMax >= 100 || finalMax <= 0 {
		log.Fatal("diffusion looks wrong")
	}
}
