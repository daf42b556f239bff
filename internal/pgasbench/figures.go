package pgasbench

import (
	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
)

// Standard sweeps used across the figures.
var (
	SmallSizes  = []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048}
	LargeSizes  = []int{4096, 8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576, 2097152, 4194304}
	StrideSweep = []int{2, 4, 8, 16, 32, 64}
	ImageSweep  = []int{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// libProfile is one library of Figs 2 and 3, by the profile it runs on its
// machine.
type libProfile struct {
	lib  Library
	name string
}

// The three libraries Figs 2 and 3 compare, on each machine.
var (
	stampedeLibs = []libProfile{
		{LibSHMEM, fabric.ProfMV2XSHMEM},
		{LibMPI3, fabric.ProfMV2XMPI3},
		{LibGASNet, fabric.ProfGASNetIBV},
	}
	titanLibs = []libProfile{
		{LibSHMEM, fabric.ProfCraySHMEM},
		{LibMPI3, fabric.ProfCrayMPICH},
		{LibGASNet, fabric.ProfGASNetGemini},
	}
)

// upTo returns the counts no larger than maxImages.
func upTo(counts []int, maxImages int) (out []int) {
	for _, n := range counts {
		if n <= maxImages {
			out = append(out, n)
		}
	}
	return out
}

// withNaive returns o with the naive strided algorithm (putmem per contiguous
// block), the best for Himeno per §V-D.
func withNaive(o caf.Options) caf.Options {
	o.Strided = caf.StridedNaive
	return o
}

// Fig2 regenerates the paper's Figure 2: put latency comparison (1 pair, two
// nodes) for SHMEM vs MPI-3.0 vs GASNet on Stampede and on the Cray/Gemini
// platform, small and large message sizes.
func Fig2() Figure {
	st := fabric.Stampede()
	ti := fabric.Titan()
	panel := func(title string, m *fabric.Machine, profs []libProfile, sizes []int) plannedPanel {
		p := plannedPanel{Panel: Panel{Title: title, XLabel: "bytes", YLabel: "latency (us)"}}
		for _, pr := range profs {
			cfg := RawPutConfig{Machine: m, Profile: pr.name, Library: pr.lib, Pairs: 1, Sizes: sizes, Iters: 5}
			p.add(func() (Series, error) { return PutLatency(cfg) })
		}
		return p
	}
	return Figure{
		ID:    "Fig2",
		Title: "Put latency comparison using two nodes for SHMEM, MPI-3.0 and GASNet",
		Panels: buildPanels(
			panel("(a) Stampede: Put 1-pair, small sizes", st, stampedeLibs, SmallSizes),
			panel("(b) Stampede: Put 1-pair, large sizes", st, stampedeLibs, LargeSizes),
			panel("(c) Titan: Put 1-pair, small sizes", ti, titanLibs, SmallSizes),
			panel("(d) Titan: Put 1-pair, large sizes", ti, titanLibs, LargeSizes),
		),
	}
}

// Fig3 regenerates Figure 3: put bandwidth with 1 and 16 communicating pairs.
func Fig3() Figure {
	st := fabric.Stampede()
	ti := fabric.Titan()
	panel := func(title string, m *fabric.Machine, profs []libProfile, pairs int) plannedPanel {
		p := plannedPanel{Panel: Panel{Title: title, XLabel: "bytes", YLabel: "bandwidth (MB/s)"}}
		for _, pr := range profs {
			cfg := RawPutConfig{Machine: m, Profile: pr.name, Library: pr.lib, Pairs: pairs, Sizes: LargeSizes, Iters: 3}
			p.add(func() (Series, error) { return PutBandwidth(cfg) })
		}
		return p
	}
	return Figure{
		ID:    "Fig3",
		Title: "Put bandwidth comparison using two nodes for SHMEM, MPI-3.0 and GASNet",
		Panels: buildPanels(
			panel("(a) Stampede: Put 1 pair", st, stampedeLibs, 1),
			panel("(b) Stampede: Put 16 pairs", st, stampedeLibs, 16),
			panel("(c) Titan: Put 1 pair", ti, titanLibs, 1),
			panel("(d) Titan: Put 16 pairs", ti, titanLibs, 16),
		),
	}
}

// xc30Configs returns the three CAF configurations of Figure 6.
func xc30Configs() []CAFPutConfig {
	xc := fabric.CrayXC30()
	return []CAFPutConfig{
		{Label: "Cray-CAF", Opts: caf.CrayCAF(xc)},
		{Label: "UHCAF-GASNet", Opts: caf.UHCAFOverGASNet(xc, fabric.ProfGASNetAries)},
		{Label: "UHCAF-Cray-SHMEM", Opts: caf.UHCAFOverCraySHMEM(xc)},
	}
}

// cafPutPanels are the four panels of Figs 6 and 7: contiguous put bandwidth
// of the contig configurations, then 2-D strided put bandwidth of the strided
// ones, each with 1 and then 16 communicating pairs.
func cafPutPanels(contig, strided []CAFPutConfig) []Panel {
	panel := func(title, xLabel string, configs []CAFPutConfig, pairs int, run func(CAFPutConfig) (Series, error)) plannedPanel {
		p := plannedPanel{Panel: Panel{Title: title, XLabel: xLabel, YLabel: "bandwidth (MB/s)"}}
		for _, c := range configs {
			c.Pairs = pairs
			p.add(func() (Series, error) { return run(c) })
		}
		return p
	}
	bySize := func(c CAFPutConfig) (Series, error) { return CAFContigBandwidth(c, LargeSizes) }
	byStride := func(c CAFPutConfig) (Series, error) { return CAFStridedBandwidth(c, StrideSweep) }
	return buildPanels(
		panel("(a) Contiguous put: 1 pair", "bytes", contig, 1, bySize),
		panel("(b) Contiguous put: 16 pairs", "bytes", contig, 16, bySize),
		panel("(c) Strided put: 1 pair", "stride (ints)", strided, 1, byStride),
		panel("(d) Strided put: 16 pairs", "stride (ints)", strided, 16, byStride),
	)
}

// Fig6 regenerates Figure 6: CAF contiguous and 2-D strided put bandwidth on
// the Cray XC30.
func Fig6() Figure {
	xc := fabric.CrayXC30()
	strided := []CAFPutConfig{
		{Label: "Cray-CAF", Opts: caf.CrayCAF(xc)},
		{Label: "UHCAF-Cray-SHMEM-naive", Opts: withNaive(caf.UHCAFOverCraySHMEM(xc))},
		{Label: "UHCAF-Cray-SHMEM-2dim", Opts: caf.UHCAFOverCraySHMEM(xc)},
	}
	return Figure{
		ID:     "Fig6",
		Title:  "PGAS Microbenchmark tests on Cray XC30: put and 2-D strided put bandwidth",
		Panels: cafPutPanels(xc30Configs(), strided),
	}
}

// Fig7 regenerates Figure 7: the same benchmarks on Stampede with
// MVAPICH2-X SHMEM (whose iput is a loop of putmem, so naive == 2dim).
func Fig7() Figure {
	st := fabric.Stampede()
	contig := []CAFPutConfig{
		{Label: "UHCAF-GASNet", Opts: caf.UHCAFOverGASNet(st, fabric.ProfGASNetIBV)},
		{Label: "UHCAF-MVAPICH2-X-SHMEM", Opts: caf.UHCAFOverMV2XSHMEM()},
	}
	strided := []CAFPutConfig{
		{Label: "UHCAF-GASNet", Opts: caf.UHCAFOverGASNet(st, fabric.ProfGASNetIBV)},
		{Label: "UHCAF-MVAPICH2-X-SHMEM-naive", Opts: withNaive(caf.UHCAFOverMV2XSHMEM())},
		{Label: "UHCAF-MVAPICH2-X-SHMEM-2dim", Opts: caf.UHCAFOverMV2XSHMEM()},
	}
	return Figure{
		ID:     "Fig7",
		Title:  "PGAS Microbenchmark tests on Stampede: put and 2-D strided put bandwidth",
		Panels: cafPutPanels(contig, strided),
	}
}

// Fig8 regenerates Figure 8: the lock microbenchmark on Titan — all images
// repeatedly acquire and release the lock at image 1.
func Fig8(maxImages int) Figure {
	ti := fabric.Titan()
	configs := []config{
		{"Cray-CAF", caf.CrayCAF(ti)},
		{"UHCAF-GASNet", caf.UHCAFOverGASNet(ti, fabric.ProfGASNetGemini)},
		{"UHCAF-Cray-SHMEM", caf.UHCAFOverCraySHMEM(ti)},
	}
	p := Panel{Title: "Locks: all images acquiring/releasing lck[1]", XLabel: "images", YLabel: "time (ms)",
		Series: sweep(labels(configs), upTo(ImageSweep, maxImages), func(s, n int) (float64, error) {
			return LockContention(configs[s].Opts, n)
		})}
	return Figure{
		ID:     "Fig8",
		Title:  "Microbenchmark test for locks on Titan",
		Panels: []Panel{p},
	}
}

// MatrixOrientedAblation regenerates the §V-D observation on Stampede: for
// matrix-oriented sections (contiguous dimension 1), the naive algorithm
// (putmem per contiguous block) beats 2dim_strided because MVAPICH2-X's iput
// devolves into per-element puts.
func MatrixOrientedAblation() Figure {
	configs := []CAFPutConfig{
		{Label: "UHCAF-MVAPICH2-X-SHMEM-naive", Opts: withNaive(caf.UHCAFOverMV2XSHMEM())},
		{Label: "UHCAF-MVAPICH2-X-SHMEM-2dim", Opts: caf.UHCAFOverMV2XSHMEM()},
	}
	p := plannedPanel{Panel: Panel{Title: "Matrix-oriented section (dim 1 contiguous)", XLabel: "stride (ints)", YLabel: "bandwidth (MB/s)"}}
	for _, c := range configs {
		p.add(func() (Series, error) { return CAFMatrixBandwidth(c, StrideSweep) })
	}
	return Figure{
		ID:     "MatrixStride",
		Title:  "§V-D: matrix-oriented strides favour putmem per contiguous block",
		Panels: buildPanels(p),
	}
}

// CAFMatrixBandwidth is CAFStridedBandwidth's matrix-oriented sibling:
// dimension 1 is a contiguous block (stride 1), dimension 2 is strided —
// the Himeno halo pattern of §V-D.
func CAFMatrixBandwidth(cfg CAFPutConfig, strides []int) (Series, error) {
	const elems = 64
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 1
	}
	per := cfg.Opts.Machine.CoresPerNode
	images := 2 * per
	opts := cfg.Opts
	opts.ActivePairs = cfg.Pairs

	results := make([]float64, len(strides))
	vals := make([]int32, elems*elems)
	err := caf.Run(images, opts, func(img *Image) {
		me := img.ThisImage()
		isSrc := me <= cfg.Pairs
		target := me + per
		for si, stride := range strides {
			c := caf.Allocate[int32](img, elems, elems*stride)
			sec := caf.Section{
				{Lo: 0, Hi: elems - 1, Step: 1},
				{Lo: 0, Hi: (elems - 1) * stride, Step: stride},
			}
			img.SyncAll()
			start := img.Clock().Now()
			if isSrc {
				for i := 0; i < cfg.Iters; i++ {
					c.Put(target, sec, vals)
				}
			}
			img.SyncAll()
			if me == 1 {
				elapsed := img.Clock().Now() - start
				bytes := float64(elems*elems*4) * float64(cfg.Iters)
				results[si] = bytes / (elapsed / 1e9) / 1e6
			}
			c.Deallocate()
		}
	})
	if err != nil {
		return Series{}, err
	}
	out := Series{Label: cfg.Label}
	for si, stride := range strides {
		out.Rows = append(out.Rows, Row{X: float64(stride), Value: results[si]})
	}
	return out, nil
}
