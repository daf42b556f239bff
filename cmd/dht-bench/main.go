// dht-bench regenerates the paper's Figure 9: the distributed hash table
// benchmark on the Titan model, comparing Cray-CAF, UHCAF-over-GASNet and
// UHCAF-over-Cray-SHMEM.
//
// With -faultplan or -faultseed it instead runs one deterministic chaos
// replay: every image performs its locked random updates through the
// STAT-bearing path under a lossy-fabric fault plan, and the run reports each
// image's final STAT, the virtual time, and the per-link reliability
// forensics. The same plan — file or seed — replays bit-identically.
package main

import (
	"flag"
	"fmt"
	"os"

	"cafshmem/internal/caf"
	"cafshmem/internal/dht"
	"cafshmem/internal/fabric"
	"cafshmem/internal/pgasbench"
)

func main() {
	maxImages := flag.Int("images", 1024, "maximum image count")
	buckets := flag.Int("buckets", 128, "hash buckets per image")
	updates := flag.Int("updates", 50, "random locked updates per image")
	transport := flag.String("transport", "", "run the locked-update sweep on ONE Stampede transport backend (shmem, gasnet, or mpi3) instead of the Figure-9 trio")
	chaos := pgasbench.ChaosFlags(flag.CommandLine, "Figure 9")
	prof := pgasbench.ProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dht-bench:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	plan, err := chaos.Plan(20_000)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dht-bench:", err)
		os.Exit(1)
	}
	if plan != nil {
		chaosReplay(plan, chaos.Images, *buckets, *updates)
		return
	}

	if *transport != "" {
		kind, err := caf.ParseTransport(*transport)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dht-bench:", err)
			os.Exit(2)
		}
		transportSweep(kind, *maxImages, *buckets, *updates)
		return
	}

	f := pgasbench.Fig9(*maxImages, *buckets, *updates)
	fmt.Print(f.Render())

	if _, err := pgasbench.ReportClaims(os.Stdout, "fig9", &f); err != nil {
		fmt.Fprintln(os.Stderr, "dht-bench:", err)
		os.Exit(1)
	}
}

// transportSweep runs the locked-update workload on a single Stampede
// transport backend (-transport shmem|gasnet|mpi3), printing a time table —
// the per-backend view of the Figure-9 comparison on the machine whose three
// transports the conformance suite covers.
func transportSweep(kind caf.TransportKind, maxImages, buckets, updates int) {
	opts := pgasbench.TransportOptions(kind)
	fmt.Printf("DHT on Stampede, transport=%v, %d buckets/image, %d updates/image\n",
		kind, buckets, updates)
	fmt.Printf("%8s %12s   %s\n", "images", "time (ms)", "partition memory; host synchronisation")
	for _, n := range pgasbench.ImageSweep {
		if n > maxImages {
			continue
		}
		r, err := dht.Bench(opts, n, buckets, updates)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dht-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%8d %12.3f   %v; %v\n", n, r.TimeMs, r.Pages, r.Metrics)
	}
}

// chaosReplay runs the locked-update workload once under plan, every image on
// the STAT-bearing path, and reports what the fault machinery observed. Where
// images contend for a lock, arrival order at the contended atomic is
// host-arbitrated (internal/pgas/engine.go; ROADMAP, P0 item): the replay is
// exact up to that order.
func chaosReplay(plan *fabric.FaultPlan, images, buckets, updates int) {
	opts := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
	opts.FaultPlan = plan

	stats := make([]caf.Stat, images)
	applied := make([]int, images)
	var timeMs float64
	var forensics []caf.LinkReport
	fmt.Printf("chaos replay: %d images, plan %v\n", images, plan)
	err := caf.Run(images, opts, func(img *caf.Image) {
		me := img.ThisImage()
		t := dht.New(img, buckets)
		if s := img.SyncAllStat(); s != caf.StatOK {
			stats[me-1] = s
			return
		}
		rng := uint64(0x9e3779b9*me + 7)
		for i := 0; i < updates; i++ {
			rng = splitmix64(rng)
			s, err := t.UpdateStat(rng%uint64(images*buckets/2), 1)
			if err != nil {
				panic(err) // table full: a sizing error, not a fault
			}
			if s != caf.StatOK {
				stats[me-1] = s
				break
			}
			applied[me-1]++
			if (i+1)%10 == 0 {
				if s := img.SyncAllStat(); s != caf.StatOK {
					stats[me-1] = s
					break
				}
			}
		}
		if me == 1 {
			timeMs = img.Clock().Now() / 1e6
			forensics = img.LinkReports()
		}
	})
	if err != nil {
		// A legacy (non-STAT) op that hit an exhausted link error-terminates
		// the job — the designed escalation, and a deterministic outcome of
		// this plan, so report it as the replay's result rather than a tool
		// failure.
		fmt.Printf("outcome: error termination — %v\n", err)
		return
	}
	for i, s := range stats {
		fmt.Printf("image %d: stat=%v applied=%d/%d\n", i+1, s, applied[i], updates)
	}
	fmt.Printf("time=%.3fms (image 1)\n", timeMs)
	if len(forensics) == 0 {
		fmt.Println("forensics: no lossy links exercised")
		return
	}
	fmt.Println("forensics (per directed link):")
	for _, r := range forensics {
		fmt.Printf("  %v\n", r)
	}
}

// splitmix64 spreads the per-image key stream (same mix as the dht package).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
