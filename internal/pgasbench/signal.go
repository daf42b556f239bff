package pgasbench

import (
	"cafshmem/internal/himeno"
)

// Signal-driven synchronisation harness (beyond-paper extension): OpenSHMEM
// 1.5 put-with-signal plus signal-wait replaces the barrier that paced the
// PR 4 overlap schedule. Each image waits only on its own neighbours' flags,
// so the steady state runs with zero barriers — the per-destination
// completion the paper's global quiet/barrier mapping could not express.

// SignalHimenoParams is the grid FigSignal sweeps — the same grid as the
// overlap figure, so the two baselines line up.
func SignalHimenoParams() himeno.Params { return OverlapHimenoParams() }

// FigSignal builds the signal figure. Panel A sweeps the Himeno solver on
// all three machine profiles, the barrier-paced overlap schedule (PR 4,
// Params.OverlapBarrier) against the signal-driven one. Panel B counts the
// barriers each schedule executes as the iteration count grows: blocking
// pays two per iteration, barrier-paced overlap one, and the signal schedule
// none — its count is flat at the setup/teardown constant.
func FigSignal(maxImages int) Figure {
	prm := SignalHimenoParams()
	counts := upTo(ImageSweep, min(maxImages, prm.NY))
	bp, sp := prm, prm
	bp.Overlap, bp.OverlapBarrier = true, true
	sp.Overlap = true
	barrier, signal := schedule{"barrier", bp}, schedule{"signal", sp}
	app := Panel{Title: "Himeno ghost refresh: barrier-paced vs signal-driven", XLabel: "images", YLabel: "time (ms)",
		Series: himenoPairs(overlapMachines(), counts, barrier, signal)}

	bars := Panel{Title: "barriers executed per run (image 1)", XLabel: "iterations", YLabel: "barriers"}
	machine := overlapMachines()[0]
	images := counts[len(counts)-1]
	for _, sc := range []schedule{{"blocking", prm}, {"barrier overlap", bp}, {"signal overlap", sp}} {
		s := Series{Label: sc.name}
		for _, iters := range []int{1, 3, 6, 9} {
			ip := sc.prm
			ip.Iters = iters
			r, err := himeno.Run(machine.Opts, images, ip)
			if err != nil {
				panic(err)
			}
			s.Rows = append(s.Rows, Row{X: float64(iters), Value: float64(r.Barriers)})
		}
		bars.Series = append(bars.Series, s)
	}

	return Figure{
		ID:    "FigSignal",
		Title: "Put-with-signal: barrier-free ghost refresh",
		Panels: []Panel{app, bars,
			// Panel C: the two schedules across the three Stampede transport
			// backends. SHMEM fuses data and doorbell in hardware; GASNet
			// emulates put-with-signal over an active message (the
			// AMHandlerNs surcharge the conformance suite pins); the MPI-3
			// mapping issues the flag as one more blocking RMA op. All three
			// still run barrier-free in the steady state — the schedules
			// differ only in what one notify costs.
			{Title: "Himeno by transport: barrier-paced vs signal-driven (Stampede)", XLabel: "images", YLabel: "time (ms)",
				Series: himenoPairs(transportConfigs(), counts, barrier, signal)}},
	}
}
