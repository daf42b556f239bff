package pgasbench

import (
	"fmt"
	"io"
	"strings"

	"cafshmem/internal/caf"
	"cafshmem/internal/dht"
	"cafshmem/internal/fabric"
	"cafshmem/internal/himeno"
)

// TransportOptions returns the canonical Stampede configuration for one CAF
// transport backend — the configuration the transport-comparison panels, the
// transport sweeps (TransportSweep) and BenchmarkWallclockHimenoTransport share.
// Every backend gets the naive strided algorithm and MCS locks so the only
// degree of freedom across the three rows is the communication mapping itself.
func TransportOptions(k caf.TransportKind) caf.Options {
	var o caf.Options
	switch k {
	case caf.TransportGASNet:
		o = caf.UHCAFOverGASNet(fabric.Stampede(), fabric.ProfGASNetIBV)
	case caf.TransportMPI3:
		o = caf.UHCAFOverMV2XMPI3()
	default:
		o = caf.UHCAFOverMV2XSHMEM()
	}
	o.Locks = caf.LockMCS
	return withNaive(o)
}

// config is one labelled configuration of a comparison panel.
type config struct {
	Label string
	Opts  caf.Options
}

// transportConfigs are the three Stampede transport backends, each as
// TransportOptions configures it, in the order the comparison panels use.
func transportConfigs() []config {
	return []config{
		{"MV2X-SHMEM", TransportOptions(caf.TransportSHMEM)},
		{"GASNet-ibv", TransportOptions(caf.TransportGASNet)},
		{"MV2X-MPI3", TransportOptions(caf.TransportMPI3)},
	}
}

// The table Figure 9 sweeps (§V-C): buckets hosted per image, and random
// locked updates per image.
const (
	dhtBuckets = 128
	dhtUpdates = 50
)

// Fig9 regenerates Figure 9: the distributed hash table benchmark on Titan.
// Each image performs dhtUpdates random locked updates; execution time of the
// slowest image is reported per image count.
func Fig9(maxImages int) Figure {
	ti := fabric.Titan()
	configs := []config{
		{"Cray-CAF", caf.CrayCAF(ti)},
		{"UHCAF-GASNet", caf.UHCAFOverGASNet(ti, fabric.ProfGASNetGemini)},
		{"UHCAF-Cray-SHMEM", caf.UHCAFOverCraySHMEM(ti)},
	}
	counts := upTo(ImageSweep, maxImages)
	p := Panel{Title: "DHT: random locked updates", XLabel: "images", YLabel: "time (ms)"}
	for _, c := range configs {
		s := Series{Label: c.Label}
		for _, n := range counts {
			r, err := dht.Bench(c.Opts, n, dhtBuckets, dhtUpdates)
			if err != nil {
				panic(err)
			}
			s.Rows = append(s.Rows, Row{X: float64(n), Value: r.TimeMs})
		}
		p.Series = append(p.Series, s)
	}
	return Figure{ID: "Fig9", Title: "Distributed Hash Table (Titan)", Panels: []Panel{p}}
}

// himenoCounts are Fig 10's image counts: one image, then the sweep, up to
// maxImages and no more than the grid's planes.
func himenoCounts(maxImages int, prm himeno.Params) []int {
	return upTo(append([]int{1}, ImageSweep...), min(maxImages, prm.NY))
}

// Fig10 regenerates Figure 10: the CAF Himeno benchmark on Stampede, MFLOPS
// vs image count, UHCAF over GASNet vs UHCAF over MVAPICH2-X SHMEM with the
// naive strided algorithm (the best per §V-D).
func Fig10(maxImages int, prm himeno.Params) Figure {
	st := fabric.Stampede()
	configs := []config{
		{"UHCAF-GASNet", caf.UHCAFOverGASNet(st, fabric.ProfGASNetIBV)},
		{"UHCAF-MVAPICH2-X-SHMEM", withNaive(caf.UHCAFOverMV2XSHMEM())},
	}
	counts := himenoCounts(maxImages, prm)
	p := Panel{Title: "Himeno Jacobi pressure solver", XLabel: "images", YLabel: "MFLOPS"}
	for _, c := range configs {
		s := Series{Label: c.Label}
		for _, n := range counts {
			r, err := himeno.Run(c.Opts, n, prm)
			if err != nil {
				panic(err)
			}
			s.Rows = append(s.Rows, Row{X: float64(n), Value: r.MFLOPS})
		}
		p.Series = append(p.Series, s)
	}
	return Figure{ID: "Fig10", Title: "CAF Himeno Benchmark Performance Tests on Stampede", Panels: []Panel{p}}
}

// DefaultHimenoParams is the scaled-down grid used by the harnesses: the
// paper ran class-sized grids on 2048 cores of Stampede; this grid keeps the
// same surface-to-volume pressure at laptop scale.
func DefaultHimenoParams() himeno.Params {
	return himeno.Params{NX: 32, NY: 256, NZ: 16, Iters: 3}
}

// App is the application behind an application figure (Figs 9 and 10), run
// on its own rather than as the figure: a transport sweep over the figure's
// image counts, one row at a time, and a chaos replay.
type App struct {
	Name    string // the workload, as the sweep's header names it
	Setup   string // its size, for the sweep's header
	Columns string // the sweep's value-column headings, aligned with SweepRow.Values
	Counts  []int  // the figure's image counts
	Row     func(opts caf.Options, images int) (SweepRow, error)
	// LossFrom is where a seeded fault plan's loss window opens (virtual ns):
	// after the application's set-up.
	LossFrom float64
	// Replay runs the application once under opts, which carry the fault
	// plan, and returns the lines that summarise its outcome.
	Replay func(opts caf.Options, images int) (summary string, forensics []caf.LinkReport, err error)
}

// SweepRow is one image count of a transport sweep: its value columns,
// formatted, then the job's partition memory and host synchronisation.
type SweepRow struct {
	Values  string
	Pages   caf.PageStats
	Metrics caf.Metrics
}

// TransportSweep prints app's sweep on one Stampede transport backend,
// configured as TransportOptions(kind) — the per-backend view of its figure.
// Each row ends in pgas.Metrics beside the partition memory: goroutine sleeps
// follow the host schedule, barrier generations are exact.
func TransportSweep(w io.Writer, app *App, kind caf.TransportKind) error {
	opts := TransportOptions(kind)
	fmt.Fprintf(w, "%s on Stampede, transport=%v, %s\n", app.Name, kind, app.Setup)
	fmt.Fprintf(w, "%8s %s   %s\n", "images", app.Columns, "partition memory; host synchronisation")
	for _, n := range app.Counts {
		r, err := app.Row(opts, n)
		if err != nil {
			return fmt.Errorf("%s on %d images: %w", app.Name, n, err)
		}
		fmt.Fprintf(w, "%8d %s   %v; %v\n", n, r.Values, r.Pages, r.Metrics)
	}
	return nil
}

// dhtApp is Figure 9's application: the DHT's random locked updates.
func dhtApp(s Scale) *App {
	return &App{
		Name:    "DHT",
		Setup:   fmt.Sprintf("%d buckets/image, %d updates/image", dhtBuckets, dhtUpdates),
		Columns: fmt.Sprintf("%12s", "time (ms)"),
		Counts:  upTo(ImageSweep, s.DHTImages),
		Row: func(opts caf.Options, n int) (SweepRow, error) {
			r, err := dht.Bench(opts, n, dhtBuckets, dhtUpdates)
			return SweepRow{fmt.Sprintf("%12.3f", r.TimeMs), r.Pages, r.Metrics}, err
		},
		LossFrom: 20_000,
		Replay: func(opts caf.Options, images int) (string, []caf.LinkReport, error) {
			r, err := dht.Replay(opts, images, dhtBuckets, dhtUpdates)
			var b strings.Builder
			for i, s := range r.Stats {
				fmt.Fprintf(&b, "image %d: stat=%v applied=%d/%d\n", i+1, s, r.Applied[i], dhtUpdates)
			}
			fmt.Fprintf(&b, "time=%.3fms (image 1)\n", r.TimeMs)
			return b.String(), r.Forensics, err
		},
	}
}

// himenoApp is Figure 10's application: the Himeno solver on the scale's
// grid. Its chaos replay runs the fault-aware signal-overlap solver.
func himenoApp(s Scale) *App {
	prm := s.Himeno
	return &App{
		Name:    "Himeno",
		Setup:   fmt.Sprintf("grid %dx%dx%d, %d iters", prm.NX, prm.NY, prm.NZ, prm.Iters),
		Columns: fmt.Sprintf("%12s %12s", "MFLOPS", "time (ms)"),
		Counts:  himenoCounts(s.HimenoImages, prm),
		Row: func(opts caf.Options, n int) (SweepRow, error) {
			r, err := himeno.Run(opts, n, prm)
			return SweepRow{fmt.Sprintf("%12.2f %12.3f", r.MFLOPS, r.TimeMs), r.Pages, r.Metrics}, err
		},
		LossFrom: 200_000,
		Replay: func(opts caf.Options, images int) (string, []caf.LinkReport, error) {
			p := prm
			p.FaultAware, p.Overlap = true, true
			r, err := himeno.Run(opts, images, p)
			return fmt.Sprintf("stat=%v iters=%d/%d gosa=%.6e time=%.3fms\npartition memory: %v; %v\n",
				r.Stat, r.Iters, p.Iters, r.Gosa, r.TimeMs, r.Pages, r.Metrics), r.Forensics, err
		},
	}
}
