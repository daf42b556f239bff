package pgasbench

import (
	"cafshmem/internal/caf"
	"cafshmem/internal/dht"
	"cafshmem/internal/fabric"
	"cafshmem/internal/himeno"
)

// TransportOptions returns the canonical Stampede configuration for one CAF
// transport backend — the configuration the transport-comparison panels, the
// bench CLIs' -transport flags and BenchmarkWallclockHimenoTransport share.
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
	o.Strided = caf.StridedNaive
	o.Locks = caf.LockMCS
	return o
}

// TransportConfigs lists the three Stampede transport backends in the order
// the comparison panels use.
func TransportConfigs() []struct {
	Label string
	Kind  caf.TransportKind
} {
	return []struct {
		Label string
		Kind  caf.TransportKind
	}{
		{"MV2X-SHMEM", caf.TransportSHMEM},
		{"GASNet-ibv", caf.TransportGASNet},
		{"MV2X-MPI3", caf.TransportMPI3},
	}
}

// Fig9 regenerates Figure 9: the distributed hash table benchmark on Titan.
// Each image performs `updates` random locked updates; execution time of the
// slowest image is reported per image count.
func Fig9(maxImages, bucketsPerImage, updates int) Figure {
	ti := fabric.Titan()
	counts := []int{}
	for _, n := range ImageSweep {
		if n <= maxImages {
			counts = append(counts, n)
		}
	}
	configs := []struct {
		label string
		opts  caf.Options
	}{
		{"Cray-CAF", caf.CrayCAF(ti)},
		{"UHCAF-GASNet", caf.UHCAFOverGASNet(ti, fabric.ProfGASNetGemini)},
		{"UHCAF-Cray-SHMEM", caf.UHCAFOverCraySHMEM(ti)},
	}
	p := Panel{Title: "DHT: random locked updates", XLabel: "images", YLabel: "time (ms)"}
	for _, c := range configs {
		s := Series{Label: c.label}
		for _, n := range counts {
			r, err := dht.Bench(c.opts, n, bucketsPerImage, updates)
			if err != nil {
				panic(err)
			}
			s.Rows = append(s.Rows, Row{X: float64(n), Value: r.TimeMs})
		}
		p.Series = append(p.Series, s)
	}
	return Figure{ID: "Fig9", Title: "Distributed Hash Table (Titan)", Panels: []Panel{p}}
}

// Fig10 regenerates Figure 10: the CAF Himeno benchmark on Stampede, MFLOPS
// vs image count, UHCAF over GASNet vs UHCAF over MVAPICH2-X SHMEM with the
// naive strided algorithm (the best per §V-D).
func Fig10(maxImages int, prm himeno.Params) Figure {
	st := fabric.Stampede()
	counts := []int{}
	for _, n := range append([]int{1}, ImageSweep...) {
		if n <= maxImages && n <= prm.NY {
			counts = append(counts, n)
		}
	}
	shmOpts := caf.UHCAFOverMV2XSHMEM()
	shmOpts.Strided = caf.StridedNaive
	configs := []struct {
		label string
		opts  caf.Options
	}{
		{"UHCAF-GASNet", caf.UHCAFOverGASNet(st, fabric.ProfGASNetIBV)},
		{"UHCAF-MVAPICH2-X-SHMEM", shmOpts},
	}
	p := Panel{Title: "Himeno Jacobi pressure solver", XLabel: "images", YLabel: "MFLOPS"}
	for _, c := range configs {
		s := Series{Label: c.label}
		for _, n := range counts {
			r, err := himeno.Run(c.opts, n, prm)
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
