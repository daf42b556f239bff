package pgasbench

import (
	"cafshmem/internal/caf"
	"cafshmem/internal/pgas"
)

// CAFPutConfig describes a CAF-level put benchmark (Figs 6-7): pairs of
// images across two nodes performing co-indexed puts.
type CAFPutConfig struct {
	Label string
	Opts  caf.Options
	Pairs int
	Iters int
}

// CAFContigBandwidth measures contiguous co-indexed put bandwidth (MB/s) for
// each message size in bytes (Figs 6/7 panels (a) and (b)).
func CAFContigBandwidth(cfg CAFPutConfig, sizes []int) (Series, error) {
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 1
	}
	per := cfg.Opts.Machine.CoresPerNode
	images := 2 * per
	opts := cfg.Opts
	opts.ActivePairsPerNode = cfg.Pairs

	results := make([]float64, len(sizes))
	// The source images put from the read-only zero source: a byte coarray's
	// put hands it to the transport as it stands.
	vals := pgas.Zeros(maxSize(sizes))
	err := caf.Run(images, opts, func(img *Image) {
		c := caf.Allocate[byte](img, len(vals))
		me := img.ThisImage()
		isSrc := me <= cfg.Pairs
		target := me + per
		for si, size := range sizes {
			img.SyncAll()
			start := img.Clock().Now()
			if isSrc {
				sec := caf.Section{{Lo: 0, Hi: size - 1, Step: 1}}
				for i := 0; i < cfg.Iters; i++ {
					c.Put(target, sec, vals[:size])
				}
			}
			img.SyncAll()
			if me == 1 {
				elapsed := img.Clock().Now() - start
				results[si] = float64(size) * float64(cfg.Iters) / (elapsed / 1e9) / 1e6
			}
		}
	})
	if err != nil {
		return Series{}, err
	}
	out := Series{Label: cfg.Label}
	for si, size := range sizes {
		out.Rows = append(out.Rows, Row{X: float64(size), Value: results[si]})
	}
	return out, nil
}

// CAFStridedBandwidth measures 2-D strided co-indexed put bandwidth (MB/s)
// as the destination stride grows (Figs 6/7 panels (c) and (d)): a fixed
// 64x64-element section of 4-byte integers is scattered with the given
// element stride in dimension 1 and stride 2 in dimension 2, matching the
// regular multi-dimensional strides of §IV-C (both dimensions strided — the
// matrix-oriented contiguous case is benchmarked separately for §V-D).
func CAFStridedBandwidth(cfg CAFPutConfig, strides []int) (Series, error) {
	const elems = 64 // per dimension
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	if cfg.Pairs <= 0 {
		cfg.Pairs = 1
	}
	per := cfg.Opts.Machine.CoresPerNode
	images := 2 * per
	opts := cfg.Opts
	opts.ActivePairsPerNode = cfg.Pairs

	results := make([]float64, len(strides))
	vals := make([]int32, elems*elems)
	err := caf.Run(images, opts, func(img *Image) {
		me := img.ThisImage()
		isSrc := me <= cfg.Pairs
		target := me + per
		for si, stride := range strides {
			c := caf.Allocate[int32](img, elems*stride, elems*2)
			sec := caf.Section{
				{Lo: 0, Hi: (elems - 1) * stride, Step: stride},
				{Lo: 0, Hi: (elems - 1) * 2, Step: 2},
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

// Image is re-exported for the harness closures' readability.
type Image = caf.Image
