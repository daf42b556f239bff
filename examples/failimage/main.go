// Failimage: Fortran 2018 failed-image semantics on the paper's DHT
// benchmark. One image executes FAIL IMAGE mid-update — while holding a
// remote coarray lock — and the survivors recover:
//
//   - their next acquire of the dead holder's lock takes it over (the
//     fault-tolerant MCS queue repair of §IV-D's lock, extended per
//     Fortran 2018 clause 11.6.11);
//   - updates whose owning image died report STAT_FAILED_IMAGE instead of
//     hanging or terminating;
//   - sync all (stat=...) completes among the survivors and reports the
//     condition; failed_images() and image_status() identify the victim.
//
// The Fortran shape of the survivor loop this models:
//
//	call dht_update(key, 1, stat=st)
//	if (st == stat_failed_image) cycle        ! owner is gone; skip the key
//	...
//	sync all (stat=st)
//	if (st == stat_failed_image) then
//	  print *, 'lost images:', failed_images()
//	end if
//
// Run with:
//
//	go run ./examples/failimage
package main

import (
	"fmt"
	"log"
	"sync"

	"cafshmem/internal/caf"
	"cafshmem/internal/dht"
	"cafshmem/internal/fabric"
)

const (
	images  = 4
	victim  = 3 // the image that executes FAIL IMAGE
	updates = 12
)

func main() {
	var mu sync.Mutex // serialise example output
	say := func(format string, a ...interface{}) {
		mu.Lock()
		fmt.Printf(format+"\n", a...)
		mu.Unlock()
	}

	// The default options suffice: the lock is always repairable and the
	// STAT forms always report failed images.
	err := caf.Run(images, caf.UHCAFOverCraySHMEM(fabric.CrayXC30()), func(img *caf.Image) {
		me := img.ThisImage()
		tbl := dht.New(img, 32)

		for i := 0; i < updates; i++ {
			key := uint64(me*100 + i)
			if me == victim && i == updates/2 {
				// Die mid-benchmark, while holding image 1's lock: the worst
				// case for the other images, whose next acquire must repair
				// the queue rather than wait on a grant that will never come.
				lck := tbl.Lock()
				lck.AcquireStat(1)
				say("image %d: FAIL IMAGE (holding image 1's lock)", me)
				img.FailImage()
			}
			stat, err := tbl.UpdateStat(key, int64(me))
			if err != nil {
				panic(err)
			}
			if stat == caf.StatFailedImage {
				// The key's owning image is gone; a resilient application
				// re-homes the key or drops it. We drop it.
				say("image %d: update of key %d -> owner failed, skipped", me, key)
			}
		}

		// sync all (stat=st): completes among survivors, reports the loss.
		if stat := img.SyncAllStat(); stat == caf.StatFailedImage {
			if me == 1 {
				say("image %d: sync all -> STAT_FAILED_IMAGE; failed_images() = %v, image_status(%d) = %d",
					me, img.FailedImages(), victim, img.ImageStatus(victim))
			}
			if img.Stats.LockTakeovers > 0 {
				say("image %d: took over the dead holder's lock (%d takeover(s))", me, img.Stats.LockTakeovers)
			}
		}

		// The survivors' table is still fully usable — including buckets homed
		// on live images and the repaired lock.
		if me == 1 {
			say("image %d: local sum after recovery = %d", me, tbl.LocalSum())
		}
		img.SyncAllStat()
	})
	if err != nil {
		log.Fatal(err)
	}
}
