// reproduce runs the full evaluation of the paper — every figure of §V plus
// the §III motivation figures, the §V-D matrix-oriented observation, the two
// beyond-paper schedule figures and the ablations of §IV's design choices —
// by walking pgasbench.Catalog. Under each figure it prints the claims
// pgasbench.Claims holds it to, each beside this run's value; at the end it
// prints the same results as the marked tables EXPERIMENTS.md carries. It
// exits 1 when a stable claim is missed or a claim names a series its figure
// does not have.
//
// Usage:
//
//	reproduce            # default scale (seconds)
//	reproduce -full      # paper-scale image counts (1024/2048 images)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cafshmem/internal/pgasbench"
)

func main() {
	full := flag.Bool("full", false, "sweep to the paper's image counts (slower)")
	flag.Parse()
	scale := pgasbench.DefaultScale
	if *full {
		scale = pgasbench.FullScale
	}

	var tables strings.Builder
	var failures []string
	for _, e := range pgasbench.Catalog {
		start := time.Now()
		fmt.Printf("\n################ %s ################\n", e.Title)
		fig := e.Build(scale)
		fmt.Print(fig.Render())
		results, err := pgasbench.ReportClaims(os.Stdout, e.ID, &fig)
		if err != nil {
			failures = append(failures, err.Error())
		}
		for _, r := range results {
			if r.Missed() {
				failures = append(failures, fmt.Sprintf("claim %s missed: measured %s", r.Claim.ID, r.Measured))
			}
		}
		fmt.Printf("[%s took %v]\n", e.Title, time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(&tables, "\n## %s\n\n%s", e.Title, pgasbench.ClaimsBlock(e.ID, results))
	}

	fmt.Printf("\n################ Claims, as EXPERIMENTS.md carries them ################\n%s", tables.String())
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "reproduce: not held (%d):\n  %s\n", len(failures), strings.Join(failures, "\n  "))
		os.Exit(1)
	}
}
