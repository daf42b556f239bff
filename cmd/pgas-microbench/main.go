// pgas-microbench regenerates the paper's microbenchmark figures (2, 3, 6,
// 7, 8 and the §V-D matrix-oriented strides) from the PGAS Microbenchmark
// suite reimplementation, selecting them from pgasbench.Catalog.
//
// Usage:
//
//	pgas-microbench                  # all microbenchmark figures
//	pgas-microbench -fig 6           # one figure (any catalogued id: 6 or fig6, matrix, …)
//	pgas-microbench -fig 8 -images 256
package main

import (
	"flag"
	"fmt"
	"os"

	"cafshmem/internal/pgasbench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: a catalogued id (2, 3, 6, 7, 8, matrix, …) or all")
	maxImages := flag.Int("images", 1024, "maximum image count for the lock benchmark (Fig 8)")
	verify := flag.Bool("verify", false, "run the suite's put/get correctness battery instead of benchmarks")
	prof := pgasbench.ProfileFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgas-microbench:", err)
		os.Exit(1)
	}
	defer stopProfiles()

	if *verify {
		ran, err := pgasbench.VerifyAll()
		if err != nil {
			fmt.Fprintf(os.Stderr, "verification FAILED: %v\n", err)
			os.Exit(1)
		}
		for _, name := range ran {
			fmt.Printf("ok  %s\n", name)
		}
		return
	}

	scale := pgasbench.FullScale
	scale.LockImages = *maxImages
	if *fig != "all" {
		e, ok := pgasbench.Lookup(*fig)
		if !ok {
			e, ok = pgasbench.Lookup("fig" + *fig)
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "pgas-microbench: unknown figure %q\n", *fig)
			os.Exit(2)
		}
		f := e.Build(scale)
		fmt.Print(f.Render())
		return
	}
	for _, e := range pgasbench.Catalog {
		if e.Micro {
			f := e.Build(scale)
			fmt.Print(f.Render())
			fmt.Println()
		}
	}
}
