// Hybrid: a CAF program that drops down to raw OpenSHMEM calls — the model
// the paper's introduction motivates: "such an implementation allows us to
// incorporate OpenSHMEM calls directly into CAF applications (i.e. Fortran
// 2008 applications using coarrays and related features) and explore the
// ramifications of such a hybrid model."
//
// The CAF side owns the data structure (a coarray histogram); the OpenSHMEM
// side contributes a raw fetch-add work-stealing counter — something CAF
// alone would express with a heavier lock.
//
// Run with:
//
//	go run ./examples/hybrid
package main

import (
	"fmt"
	"log"
	"sync/atomic"

	"cafshmem/internal/caf"
)

const (
	images = 8
	nTasks = 400
	nBins  = 16
)

func main() {
	opts := caf.UHCAFOverMV2XSHMEM()
	var processed int64

	err := caf.Run(images, opts, func(img *caf.Image) {
		// CAF side: a histogram coarray, one copy per image.
		hist := caf.Allocate[int64](img, nBins)

		// OpenSHMEM side: a raw symmetric work counter on PE 0, advanced
		// with shmem_fadd — dynamic load balancing in three lines.
		pe := img.SHMEM()
		counter := pe.Malloc(8)
		img.SyncAll()

		for {
			task := pe.FetchAdd(0, counter, 0, 1) // grab the next task id
			if task >= nTasks {
				break
			}
			// "Work": classify the task into a bin, count it locally.
			bin := int((task * 2654435761) % nBins)
			hist.Set(hist.At(bin)+1, bin)
			atomic.AddInt64(&processed, 1)
		}
		img.SyncAll()

		// CAF side finishes the job: co_sum merges the histograms in place.
		total := hist.Slice()
		caf.CoSum(img, total, 0)
		if img.ThisImage() == 1 {
			sum := int64(0)
			for _, v := range total {
				sum += v
			}
			fmt.Printf("hybrid: %d tasks dynamically balanced over %d images via shmem_fadd\n", sum, images)
			fmt.Printf("merged histogram: %v\n", total)
			if sum != nTasks {
				panic("tasks lost")
			}
		}
		img.SyncAll()
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("every task processed exactly once (%d total)\n", processed)
}
