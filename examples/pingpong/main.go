// Pingpong: the raw OpenSHMEM API (the right-hand side of the paper's
// Figure 1) — symmetric allocation, one-sided put/get, wait-until, and the
// virtual-time measurement the whole repository's evaluation rests on.
//
// Run with:
//
//	go run ./examples/pingpong
package main

import (
	"fmt"
	"log"

	"cafshmem/internal/fabric"
	"cafshmem/internal/shmem"
)

func main() {
	cfg := shmem.Config{Machine: fabric.Stampede(), Profile: fabric.ProfMV2XSHMEM}
	const rounds = 10

	err := shmem.Run(cfg, 32, func(pe *shmem.PE) {
		// Symmetric allocation: the same offsets on every PE (shmalloc).
		data := pe.Malloc(8)
		flag := pe.Malloc(8)

		// Only one inter-node pair plays; everyone else skips straight to the
		// closing barrier, which every PE must reach (a collective under
		// PE-dependent control flow error-terminates the job, or, if every PE
		// gets through, is a collective-mismatch under the sanitizer).
		me := pe.MyPE()
		if me == 0 || me == 16 {
			peer := 16 - me

			pe.Clock().Reset()
			for r := 1; r <= rounds; r++ {
				if me == 0 {
					shmem.P(pe, peer, data, 0, int64(r)) // shmem_put
					pe.Quiet()                           // shmem_quiet
					shmem.P(pe, peer, flag, 0, int64(r))
					pe.Quiet()
					pe.WaitUntil64(flag, 0, shmem.CmpGE, int64(r)) // shmem_wait_until
				} else {
					pe.WaitUntil64(flag, 0, shmem.CmpGE, int64(r))
					if got := shmem.G[int64](pe, peer, data, 0); got != 0 {
						// ping observed; reply
						_ = got
					}
					shmem.P(pe, peer, flag, 0, int64(r))
					pe.Quiet()
				}
			}
			if me == 0 {
				rtt := pe.Clock().Micros() / rounds
				fmt.Printf("inter-node ping-pong over %s: %.2f us/round-trip (virtual time)\n",
					cfg.Profile, rtt)
			}
		}
		pe.Barrier()
	})
	if err != nil {
		log.Fatal(err)
	}
}
