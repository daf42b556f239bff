package pgasbench

import (
	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
	"cafshmem/internal/himeno"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
)

// Communication/computation overlap harness (beyond-paper extension): the
// OpenSHMEM 1.3 nonblocking RMA mapping lets the runtime hide wire time
// under computation, the optimisation the paper's §VII sketches as future
// work. Panel A isolates the mechanism with a microbenchmark; Panel B shows
// it end-to-end in the Himeno solver on each evaluated machine.

// OverlapConfig describes the microbenchmark: one PE pair, per-size timed
// phases with a computation exactly as long as the measured wire time, so
// perfect overlap halves the total.
type OverlapConfig struct {
	Machine *fabric.Machine
	Profile string
	Sizes   []int
}

// OverlapMicro measures, per message size, the elapsed virtual time of
//
//	blocking: put; quiet; compute          (communication then computation)
//	overlap:  put_nbi; compute; quiet      (computation hides the transfer)
//
// where compute equals the calibrated put+quiet wire time for that size. It
// returns the two series in elapsed µs.
func OverlapMicro(cfg OverlapConfig) (Panel, error) {
	p := Panel{Title: "put vs put_nbi with equal-length compute", XLabel: "message size (bytes)", YLabel: "elapsed (µs)"}
	blocking := Series{Label: "blocking put"}
	overlap := Series{Label: "put_nbi overlap"}

	w, err := shmem.NewWorld(shmem.Config{Machine: cfg.Machine, Profile: cfg.Profile}, 2)
	if err != nil {
		return p, err
	}
	defer w.PgasWorld().Close()
	data := payload(maxSize(cfg.Sizes)) // read-only; only PE 0 sends
	err = w.PgasWorld().Run(func(pp *pgas.PE) {
		pe := w.Attach(pp)
		buf := pe.Malloc(int64(len(data)))
		for _, size := range cfg.Sizes {
			// Calibrate the wire time for this size.
			pe.Barrier()
			var wire float64
			if pe.MyPE() == 0 {
				t0 := pe.Clock().Now()
				pe.PutMem(1, buf, 0, data[:size])
				pe.Quiet()
				wire = pe.Clock().Now() - t0
			}

			pe.Barrier()
			if pe.MyPE() == 0 {
				t0 := pe.Clock().Now()
				pe.PutMem(1, buf, 0, data[:size])
				pe.Quiet()
				pe.Clock().Advance(wire) // compute after communication
				blocking.Rows = append(blocking.Rows, Row{X: float64(size), Value: (pe.Clock().Now() - t0) / 1e3})
			}

			pe.Barrier()
			if pe.MyPE() == 0 {
				t0 := pe.Clock().Now()
				pe.PutMemNBI(1, buf, 0, data[:size])
				pe.Clock().Advance(wire) // compute over the in-flight transfer
				pe.Quiet()
				overlap.Rows = append(overlap.Rows, Row{X: float64(size), Value: (pe.Clock().Now() - t0) / 1e3})
			}
		}
		pe.Barrier()
	})
	if err != nil {
		return p, err
	}
	p.Series = []Series{blocking, overlap}
	return p, nil
}

// overlapMachines are the three evaluated machine/profile pairs for Panel B,
// each with the naive strided algorithm (best for Himeno per §V-D).
func overlapMachines() []config {
	return []config{
		{"Stampede/MV2X-SHMEM", withNaive(caf.UHCAFOverMV2XSHMEM())},
		{"XC30/Cray-SHMEM", withNaive(caf.UHCAFOverCraySHMEM(fabric.CrayXC30()))},
		{"Titan/Cray-SHMEM", withNaive(caf.UHCAFOverCraySHMEM(fabric.Titan()))},
	}
}

// schedule is one Himeno schedule of a comparison: its name in the series
// labels and the parameters that select it.
type schedule struct {
	name string
	prm  himeno.Params
}

// himenoPairs sweeps two Himeno schedules over counts on every configuration:
// per configuration, a series of each schedule's virtual time (ms), labelled
// with the configuration and then the schedule.
func himenoPairs(configs []config, counts []int, a, b schedule) []Series {
	row := func(opts caf.Options, n int, prm himeno.Params) Row {
		r, err := himeno.Run(opts, n, prm)
		if err != nil {
			panic(err)
		}
		return Row{X: float64(n), Value: r.TimeMs}
	}
	var out []Series
	for _, c := range configs {
		sa, sb := Series{Label: c.Label + " " + a.name}, Series{Label: c.Label + " " + b.name}
		for _, n := range counts {
			sa.Rows = append(sa.Rows, row(c.Opts, n, a.prm))
			sb.Rows = append(sb.Rows, row(c.Opts, n, b.prm))
		}
		out = append(out, sa, sb)
	}
	return out
}

// OverlapHimenoParams is the grid Panel B runs: small enough for the
// harness, with enough halo surface for the overlap to matter.
func OverlapHimenoParams() himeno.Params {
	return himeno.Params{NX: 16, NY: 64, NZ: 12, Iters: 3}
}

// FigOverlap builds the overlap figure: Panel A is the microbenchmark on
// Stampede's MVAPICH2-X SHMEM; Panel B sweeps the Himeno solver, blocking vs
// overlapped halo exchange, on all three machine profiles.
func FigOverlap(maxImages int) Figure {
	micro, err := OverlapMicro(OverlapConfig{
		Machine: fabric.Stampede(),
		Profile: fabric.ProfMV2XSHMEM,
		Sizes:   []int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20},
	})
	if err != nil {
		panic(err)
	}

	prm := OverlapHimenoParams()
	counts := upTo(ImageSweep, min(maxImages, prm.NY))
	op := prm
	op.Overlap = true
	blocking, overlap := schedule{"blocking", prm}, schedule{"overlap", op}
	// Panel C: the same sweep across the three Stampede transport backends at
	// one strided algorithm. SHMEM and GASNet both carry a genuine nonblocking
	// surface (shmem_put_nbi and gasnet put_nbi over fabric.NBIStreams), so
	// their overlap schedules beat their blocking ones; the MPI-3 RMA mapping
	// has no nonblocking path — PutAsync degrades to a blocking put — so its
	// two series show what the degradation costs.
	return Figure{
		ID:    "FigOverlap",
		Title: "Nonblocking RMA: communication/computation overlap",
		Panels: []Panel{micro,
			{Title: "Himeno halo exchange: blocking vs overlapped", XLabel: "images", YLabel: "time (ms)",
				Series: himenoPairs(overlapMachines(), counts, blocking, overlap)},
			{Title: "Himeno by transport: blocking vs overlapped (Stampede)", XLabel: "images", YLabel: "time (ms)",
				Series: himenoPairs(transportConfigs(), counts, blocking, overlap)},
		},
	}
}
