// himeno-bench regenerates the paper's Figure 10: the CAF Himeno benchmark
// on the Stampede model, UHCAF over GASNet vs UHCAF over MVAPICH2-X SHMEM.
//
// With -faultplan or -faultseed it instead runs one deterministic chaos
// replay of the fault-aware signal-overlap solver under a lossy-fabric fault
// plan, reporting the final STAT, completed iterations, virtual time, and the
// per-link reliability forensics (retransmits, drops, given-up links). The
// same plan — from the same file or seed — replays bit-identically.
package main

import (
	"flag"
	"fmt"
	"os"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
	"cafshmem/internal/himeno"
	"cafshmem/internal/pgasbench"
)

func main() {
	maxImages := flag.Int("images", 256, "maximum image count")
	nx := flag.Int("nx", 32, "global grid extent in x (contiguous dimension)")
	ny := flag.Int("ny", 256, "global grid extent in y (decomposed dimension)")
	nz := flag.Int("nz", 16, "global grid extent in z")
	iters := flag.Int("iters", 3, "Jacobi iterations")
	transport := flag.String("transport", "", "run the sweep on ONE Stampede transport backend (shmem, gasnet, or mpi3) instead of the Figure-10 pair")
	chaos := pgasbench.ChaosFlags(flag.CommandLine, "Figure 10")
	prof := pgasbench.ProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "himeno-bench:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	prm := himeno.Params{NX: *nx, NY: *ny, NZ: *nz, Iters: *iters}

	plan, err := chaos.Plan(200_000)
	if err != nil {
		fmt.Fprintln(os.Stderr, "himeno-bench:", err)
		os.Exit(1)
	}
	if plan != nil {
		chaosReplay(plan, chaos.Images, prm)
		return
	}

	if *transport != "" {
		kind, err := caf.ParseTransport(*transport)
		if err != nil {
			fmt.Fprintln(os.Stderr, "himeno-bench:", err)
			os.Exit(2)
		}
		transportSweep(kind, *maxImages, prm)
		return
	}

	f := pgasbench.Fig10(*maxImages, prm)
	fmt.Print(f.Render())

	// cmd/reproduce is the gate; here a missed claim is only shown.
	if _, err := pgasbench.ReportClaims(os.Stdout, "fig10", &f); err != nil {
		fmt.Fprintln(os.Stderr, "himeno-bench:", err)
		os.Exit(1)
	}
}

// transportSweep runs the Himeno sweep on a single Stampede transport backend
// (-transport shmem|gasnet|mpi3), printing an MFLOPS table — the per-backend
// view of the Figure-10 comparison, sharing its image counts and the
// canonical per-transport options (pgasbench.TransportOptions).
func transportSweep(kind caf.TransportKind, maxImages int, prm himeno.Params) {
	opts := pgasbench.TransportOptions(kind)
	fmt.Printf("Himeno on Stampede, transport=%v, grid %dx%dx%d, %d iters\n",
		kind, prm.NX, prm.NY, prm.NZ, prm.Iters)
	fmt.Printf("%8s %12s %12s   %s\n", "images", "MFLOPS", "time (ms)", "partition memory; host synchronisation")
	for _, n := range append([]int{1}, pgasbench.ImageSweep...) {
		if n > maxImages || n > prm.NY {
			continue
		}
		r, err := himeno.Run(opts, n, prm)
		if err != nil {
			fmt.Fprintln(os.Stderr, "himeno-bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%8d %12.2f %12.3f   %v; %v\n", n, r.MFLOPS, r.TimeMs, r.Pages, r.Metrics)
	}
}

// chaosReplay runs the fault-aware signal-overlap solver once under plan and
// reports what the fault machinery observed.
func chaosReplay(plan *fabric.FaultPlan, images int, prm himeno.Params) {
	prm.FaultAware = true
	prm.Overlap = true
	opts := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
	opts.FaultPlan = plan

	fmt.Printf("chaos replay: %d images, plan %v\n", images, plan)
	res, err := himeno.Run(opts, images, prm)
	if err != nil {
		// A legacy (non-STAT) op that hit an exhausted link error-terminates
		// the job — the designed escalation, and a deterministic outcome of
		// this plan, so report it as the replay's result.
		fmt.Printf("outcome: error termination — %v\n", err)
		return
	}
	fmt.Printf("stat=%v iters=%d/%d gosa=%.6e time=%.3fms\n",
		res.Stat, res.Iters, prm.Iters, res.Gosa, res.TimeMs)
	fmt.Printf("partition memory: %v; %v\n", res.Pages, res.Metrics)
	if len(res.Forensics) == 0 {
		fmt.Println("forensics: no lossy links exercised")
		return
	}
	fmt.Println("forensics (per directed link):")
	for _, r := range res.Forensics {
		fmt.Printf("  %v\n", r)
	}
}
