// reproduce runs the evaluation of the paper — every figure of §V plus the
// §III motivation figures, the §V-D matrix-oriented observation, the two
// beyond-paper schedule figures and the ablations of §IV's design choices —
// by walking pgasbench.Catalog. Under each figure it prints the claims
// pgasbench.Claims holds it to, each beside this run's value; at the end it
// prints the same results as the marked tables EXPERIMENTS.md carries. It
// exits 1 when a stable claim is missed or a claim names a series its figure
// does not have, and 2 on a bad command line.
//
// An application figure (9: the DHT, 10: Himeno) can instead run its
// application on its own: -transport sweeps it on one Stampede backend, and
// -faultseed or -faultplan runs one chaos replay under a lossy-fabric fault
// plan on the Cray XC30 over Cray SHMEM, or with -transport on that backend.
//
// Usage:
//
//	reproduce                            # every figure at default scale (seconds)
//	reproduce -full                      # paper-scale image counts (1024/2048 images)
//	reproduce -fig 8 -images 256         # one figure: a catalogued id (fig8, matrix, locks, …) or a bare number
//	reproduce -fig 2,3,6,7,8,matrix      # the PGAS Microbenchmark figures
//	reproduce -fig 10 -transport shmem   # Fig 10's application on one backend: shmem, gasnet or mpi3
//	reproduce -fig 9 -faultseed 42       # one chaos replay (-faultplan plan.json reads a plan)
//	reproduce -fig 10 -faultseed 42 -transport gasnet   # the same replay on one Stampede backend
//	reproduce -tables                    # Tables I and II
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
	"cafshmem/internal/pgasbench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams, returning its
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reproduce", flag.ContinueOnError)
	fs.SetOutput(stderr)
	full := fs.Bool("full", false, "sweep to the paper's image counts (slower)")
	figs := fs.String("fig", "", "comma-separated figures to run: catalogued ids (fig8, matrix, locks, …) or bare figure numbers (default: all)")
	images := fs.Int("images", 0, "maximum image count of every sweep of the selection; the image count of a chaos replay (default 8)")
	transport := fs.String("transport", "", "sweep each selected application figure's application on ONE Stampede transport backend (shmem, gasnet or mpi3), or run its chaos replay there")
	tables := fs.Bool("tables", false, "print Tables I and II, then only the figures -fig names")
	chaos := pgasbench.ChaosFlags(fs)
	prof := pgasbench.ProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "reproduce: "+format+"\n", a...)
		return code
	}

	if *images < 0 {
		return fail(2, "-images %d: want a positive image count", *images)
	}
	var kind caf.TransportKind
	if *transport != "" {
		var err error
		if kind, err = caf.ParseTransport(*transport); err != nil {
			return fail(2, "%v", err)
		}
	}
	app := *transport != "" || chaos.Set()

	// With no -fig, everything: every figure, or with -transport or a fault
	// plan every application figure, or with -tables nothing more.
	var sel []pgasbench.Entry
	if *figs == "" && !*tables {
		for _, e := range pgasbench.Catalog {
			if !app || e.App != nil {
				sel = append(sel, e)
			}
		}
	} else if *figs != "" {
		for _, id := range strings.Split(*figs, ",") {
			e, ok := pgasbench.Lookup(id)
			if !ok {
				return fail(2, "unknown figure %q", id)
			}
			if app && e.App == nil {
				return fail(2, "%s has no application to sweep or replay; -transport, -faultseed and -faultplan take figures 9 and 10", e.ID)
			}
			sel = append(sel, e)
		}
	}

	scale := pgasbench.DefaultScale
	if *full {
		scale = pgasbench.FullScale
	}
	if *images > 0 {
		scale.LockImages, scale.DHTImages, scale.HimenoImages = *images, *images, *images
	}

	stopProfiles, err := prof.Start()
	if err != nil {
		return fail(1, "%v", err)
	}
	defer stopProfiles()

	if *tables {
		printTables(stdout)
	}
	var claims strings.Builder
	var failures []string
	for _, e := range sel {
		start := time.Now()
		fmt.Fprintf(stdout, "\n################ %s ################\n", e.Title)
		switch {
		case chaos.Set():
			a, n := e.App(scale), cmp.Or(*images, 8)
			plan, err := chaos.Plan(n, a.LossFrom)
			if err != nil {
				return fail(1, "%v", err)
			}
			opts := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
			if *transport != "" {
				opts = pgasbench.TransportOptions(kind)
			}
			opts.FaultPlan = plan
			pgasbench.ChaosReplay(stdout, a, opts, n)
		case *transport != "":
			if err := pgasbench.TransportSweep(stdout, e.App(scale), kind); err != nil {
				return fail(1, "%v", err)
			}
		default:
			fig := e.Build(scale)
			fmt.Fprint(stdout, fig.Render())
			results, err := pgasbench.ReportClaims(stdout, e.ID, &fig)
			if err != nil {
				failures = append(failures, err.Error())
			}
			for _, r := range results {
				if r.Missed() {
					failures = append(failures, fmt.Sprintf("claim %s missed: measured %s", r.Claim.ID, r.Measured))
				}
			}
			fmt.Fprintf(&claims, "\n## %s\n\n%s", e.Title, pgasbench.ClaimsBlock(e.ID, results))
		}
		fmt.Fprintf(stdout, "[%s took %v]\n", e.Title, time.Since(start).Round(time.Millisecond))
	}

	if claims.Len() > 0 {
		fmt.Fprintf(stdout, "\n################ Claims, as EXPERIMENTS.md carries them ################\n%s", claims.String())
	}
	if len(failures) > 0 {
		return fail(1, "not held (%d):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return 0
}

// printTables prints the paper's Table I (CAF implementations) and Table II
// (CAF <-> OpenSHMEM feature mapping), each row annotated with the facility
// in this repository that implements it.
func printTables(w io.Writer) {
	rule := strings.Repeat("-", 78)
	fmt.Fprintf(w, "Table I: CAF implementations and communication layers\n%s\n", rule)
	for _, row := range caf.TableI() {
		fmt.Fprintf(w, "  %-22s %-22s %s\n", row[0], row[1], row[2])
	}
	fmt.Fprintf(w, "\nTable II: CAF <-> OpenSHMEM feature mapping\n%s\n", rule)
	for _, r := range caf.TableII() {
		marker := "direct"
		if !r.Direct {
			marker = "PAPER CONTRIBUTION"
		}
		fmt.Fprintf(w, "%-34s [%s]\n", r.Property, marker)
		fmt.Fprintf(w, "    CAF:       %s\n", r.CAF)
		fmt.Fprintf(w, "    OpenSHMEM: %s\n", r.OpenSHMEM)
		fmt.Fprintf(w, "    here:      %s\n\n", r.Runtime)
	}
}
