// Package himeno implements the CAF port of the Himeno benchmark the paper
// evaluates in §V-D: a 19-point Jacobi relaxation for the pressure Poisson
// equation of an incompressible fluid solver, with halo exchange between
// images using matrix-oriented strided coarray transfers.
//
// As in the reference benchmark, the coefficient arrays are constant
// (a = {1,1,1,1/6}, b = 0, c = 1, bnd = 1, wrk1 = 0), so they are folded
// into the kernel; the flop count per point (34) follows the official
// Himeno MFLOPS accounting.
//
// The grid is decomposed along the second dimension (Fortran's j), which
// makes each halo plane a matrix-oriented section: contiguous pencils of NX
// elements, strided across the third dimension — exactly the §V-D case where
// the naive (putmem-per-contiguous-block) transfer beats 1-D strided calls.
package himeno

import (
	"fmt"
	"sync/atomic"

	"cafshmem/internal/caf"
)

const (
	omega      = 0.8
	a4         = 1.0 / 6.0
	flopsPerPt = 34.0
)

// Params configures a run.
type Params struct {
	NX, NY, NZ int // global grid (including fixed boundary planes)
	Iters      int
	// Gather reassembles the global field on image 1 after the run
	// (validation only; not part of the timed region).
	Gather bool
	// FaultAware runs the solver with Fortran 2018 failed-image semantics:
	// synchronisation uses SyncAllStat, and when an image fails the survivors
	// abandon the iteration loop (their partial results and timings are still
	// reported, with Result.Stat recording the condition) instead of error
	// termination. The reduction between two successful barriers is safe:
	// images have no fault points inside collectives, so an image that passed
	// the pre-reduction barrier always completes the reduction.
	FaultAware bool
	// Overlap pipelines the halo exchange with the stencil computation and
	// synchronises with signals instead of barriers: each iteration sweeps
	// its two boundary j-planes first, launches each toward its neighbour as
	// a fused put-with-signal (PutSignalAsync — data and doorbell on one
	// per-destination completion stream), sweeps the interior while the
	// transfers are in flight, then waits only on its own neighbours' signals
	// before refreshing its ghost planes. The coarray serves purely as a
	// ghost-plane mailbox. Steady state has ZERO barriers and zero quiets:
	// signal-mediated completion replaces SyncMemory on the producer and the
	// barrier on the consumer, and the per-iteration residual allreduce
	// (CoSum) provides the write-after-read ordering that lets neighbours
	// overwrite ghost slots next iteration. The numerical field is identical
	// to the blocking schedule; only the residual's floating-point summation
	// order differs. Under FaultAware, one SyncAllStat per iteration guards
	// the reduction (signals alone cannot make CoSum fault-safe), and ghost
	// waits use the STAT-bearing form so a dead neighbour surfaces as a
	// status, never a hang.
	Overlap bool
	// OverlapBarrier selects the earlier barrier-paced overlap schedule
	// (PutAsync halos, one SyncMemory and one barrier per iteration) — kept
	// as the regression baseline the signal schedule is measured against.
	// When both Overlap and OverlapBarrier are set, OverlapBarrier wins.
	OverlapBarrier bool
}

// Result is the outcome of a distributed run.
type Result struct {
	Images int
	Gosa   float64
	TimeMs float64 // virtual time of the slowest image
	MFLOPS float64 // official Himeno metric over virtual time
	// Field is the reassembled global pressure field (nil unless
	// Params.Gather), indexed i + NX*(j + NY*k).
	Field []float32
	// Stat is image 1's final synchronisation status under Params.FaultAware
	// (caf.StatOK on a fault-free run); Iters is how many iterations it
	// completed before a failure cut the run short (equal to Params.Iters when
	// none did).
	Stat  caf.Stat
	Iters int
	// Barriers is image 1's total barrier count for the whole run (setup and
	// teardown included). The signal schedule's count is independent of Iters;
	// the blocking and barrier-overlap schedules grow linearly with it.
	Barriers int64
	// Forensics is the per-link reliability record of the run — retransmits,
	// drops, duplicate suppressions, given-up links — captured by image 1 at
	// the end. Empty unless the fault plan carried loss rules.
	Forensics []caf.LinkReport
	// Pages is the job's partition-memory record, captured by image 1 with
	// the forensics: pages materialised, how much of that was new memory.
	Pages caf.PageStats
	// Metrics is the job's host-side synchronisation record, captured with
	// Pages: goroutine sleeps and runners started (host dependent) and
	// rendezvous.
	Metrics caf.Metrics
	// CommOps is the job-wide total of runtime-issued communication
	// operations (caf.Stats.Ops summed over every image that finished its
	// body) — the simulated-op denominator for the wall-clock scaling
	// benchmarks. On fault-cut runs it counts survivors only.
	CommOps int64
}

func (p Params) validate(images int) error {
	if p.NX < 3 || p.NY < 3 || p.NZ < 3 {
		return fmt.Errorf("himeno: grid %dx%dx%d too small", p.NX, p.NY, p.NZ)
	}
	if p.Iters < 1 {
		return fmt.Errorf("himeno: need at least one iteration")
	}
	if images > p.NY {
		return fmt.Errorf("himeno: %d images exceed %d j-planes", images, p.NY)
	}
	return nil
}

// decompose returns the global j range [lo, hi) owned by image (1-based).
func decompose(ny, images, image int) (lo, hi int) {
	base := ny / images
	rem := ny % images
	idx := image - 1
	lo = idx*base + min(idx, rem)
	hi = lo + base
	if idx < rem {
		hi++
	}
	return lo, hi
}

// initPressure returns the standard Himeno initial condition for global
// k-plane index k: p = (k/(NZ-1))^2.
func initPressure(k, nz int) float32 {
	v := float32(k) / float32(nz-1)
	return v * v
}

// Run executes the distributed benchmark and returns its result. The
// computation is real (the returned Gosa is the true residual); only time is
// modelled, as everywhere in this repository.
func Run(opts caf.Options, images int, prm Params) (Result, error) {
	if err := prm.validate(images); err != nil {
		return Result{}, err
	}
	res := Result{Images: images}
	var worst float64
	var gosaOut float64
	var gathered []float32
	var statOut caf.Stat
	var itersOut int
	var barriersOut int64
	var forensicsOut []caf.LinkReport
	var pagesOut caf.PageStats
	var metricsOut caf.Metrics
	var commOps int64
	err := caf.Run(images, opts, func(img *caf.Image) {
		nx, ny, nz := prm.NX, prm.NY, prm.NZ
		me := img.ThisImage()
		lo, hi := decompose(ny, images, me)
		nyLoc := hi - lo
		// Coarrays are symmetric: every image allocates the same local shape,
		// sized for the largest slab (image 1 under this decomposition), even
		// when its own slab is smaller.
		nyAlloc := planeCount(ny, images, 1)

		// Local array: (nx, nyAlloc+2, nz); j=0 and j=nyLoc+1 are ghosts.
		p := caf.Allocate[float32](img, nx, nyAlloc+2, nz)
		cur := make([]float32, p.Len())
		at := func(i, j, k int) int { return i + nx*(j+(nyAlloc+2)*k) }
		for k := 0; k < nz; k++ {
			for j := 0; j < nyAlloc+2; j++ {
				for i := 0; i < nx; i++ {
					cur[at(i, j, k)] = initPressure(k, nz)
				}
			}
		}
		// sync is SyncAll, and wait a neighbour's doorbell (signal schedule
		// only), with, under FaultAware, the STAT-bearing form: a non-OK
		// status — a failed image — aborts the caller's loop instead of
		// terminating or hanging.
		stat := caf.StatOK
		okStat := func(s caf.Stat) bool {
			if s != caf.StatOK {
				stat = s
			}
			return s == caf.StatOK
		}
		sync := func() bool {
			if !prm.FaultAware {
				img.SyncAll()
				return true
			}
			return okStat(img.SyncAllStat())
		}
		var sig *caf.Signal
		wait := func(j int) bool {
			if !prm.FaultAware {
				sig.Wait(j)
				return true
			}
			return okStat(sig.WaitStat(j))
		}

		// Schedule selection. sig carries the neighbour doorbells of the
		// signal schedule; its creation is collective (and outside the timed
		// region), so every image allocates it or none does.
		barrierOverlap := prm.OverlapBarrier
		signalOverlap := prm.Overlap && !barrierOverlap
		overlap := barrierOverlap || signalOverlap
		if signalOverlap {
			sig = caf.NewSignal(img)
		}

		p.SetSlice(cur)
		done := 0
		ok := sync()

		img.Clock().Reset()
		var gosa float64
		next := make([]float32, len(cur))
		slab := slab{nx: nx, rows: nyAlloc + 2, nz: nz, lo: lo, ny: ny}
		sweepPlanes := func(jlo, jhi int) { gosa = slab.sweep(next, cur, jlo, jhi, gosa) }
		chargeCompute := func(planes int) {
			pts := float64((nx - 2) * planes * (nz - 2))
			img.Clock().Advance(opts.Machine.ComputeNs(flopsPerPt * pts))
		}
		// halos are the exchanges with my neighbours, left first: my plane j
		// fills their ghost plane theirs, and theirs fills my ghost plane mine.
		type halo struct{ to, j, theirs, mine int }
		halos := make([]halo, 0, 2)
		if me > 1 {
			halos = append(halos, halo{me - 1, 1, planeCount(ny, images, me-1) + 1, 0})
		}
		if me < images {
			halos = append(halos, halo{me + 1, nyLoc, 0, nyLoc + 1})
		}
		// sendHalos sends src's boundary planes into the neighbours' ghost
		// planes, matrix-oriented sections (contiguous in i, strided across
		// k), by the schedule's put. Put, PutAsync and PutSignalAsync all take
		// their values at issue (the documented contract, see caf/async.go),
		// so the one plane buffer is free again as soon as a put returns.
		plane := make([]float32, nx*nz)
		sendHalos := func(src []float32) {
			for _, h := range halos {
				slab.extract(plane, src, h.j)
				sec := sectionPlane(nx, nz, h.theirs)
				switch {
				case signalOverlap:
					p.PutSignalAsync(h.to, sec, plane, sig)
				case barrierOverlap:
					p.PutAsync(h.to, sec, plane)
				default:
					p.Put(h.to, sec, plane)
				}
			}
		}
		// residual is the residual reduction's argument: co_sum reduces in
		// place, so one element per image serves every iteration.
		residual := make([]float64, 1)
		for ok && done < prm.Iters {
			copy(next, cur)
			gosa = 0
			if overlap {
				// Boundary planes first, launched while the interior is swept:
				// the runtime takes a payload at issue, so neither the sweep
				// nor the swap below races the in-flight planes.
				sweepPlanes(1, 1)
				if nyLoc > 1 {
					sweepPlanes(nyLoc, nyLoc)
				}
				boundary := min(nyLoc, 2)
				chargeCompute(boundary)
				sendHalos(next)
				if nyLoc > 2 {
					sweepPlanes(2, nyLoc-1)
				}
				chargeCompute(nyLoc - boundary)
			} else {
				sweepPlanes(1, nyLoc)
				chargeCompute(nyLoc)
			}
			cur, next = next, cur

			// Completion, the one part each schedule does its own way.
			switch {
			case signalOverlap:
				// Zero barriers and zero quiets: a doorbell rides its plane's
				// completion stream, so a neighbour's signal alone says the
				// plane arrived. Write-after-read safety across iterations
				// comes from the residual allreduce below: CoSum returns only
				// after every image contributed, and each contribution follows
				// its ghost reads in program order.
				ok = (me == 1 || wait(me-1)) && (me == images || wait(me+1))
			case barrierOverlap:
				// The regression baseline: complete the puts, then one
				// barrier, which my neighbours entered after their transfers
				// into my ghost planes completed.
				img.SyncMemory()
				ok = sync()
			default:
				// The paper's §IV-B translation: store the slab, exchange
				// halos with a quiet per put and a barrier on either side —
				// everyone's local store lands before neighbours write into
				// its ghost planes.
				p.SetSlice(cur)
				if ok = sync(); ok {
					sendHalos(cur)
					ok = sync()
				}
			}
			if !ok {
				break
			}
			// Ghost-only refresh, through next (the next sweep overwrites
			// it): of the coarray only the ghost planes carry what cur lacks,
			// and the overlap schedules never store the slab interior there.
			p.SliceInto(next)
			for _, h := range halos {
				slab.copyPlane(cur, next, h.mine)
			}
			// Signals cannot make the reduction fault-safe (CoSum has no
			// STAT form), so FaultAware pays one barrier per iteration to
			// guard it; the fault-free steady state pays none.
			if signalOverlap && prm.FaultAware && !sync() {
				break
			}

			// Residual reduction, as the reference code does every iteration.
			// Safe even while a fault is pending: the barrier just above
			// succeeded, and there is no fault point between it and the end of
			// the reduction, so every participant completes it.
			residual[0] = gosa
			caf.CoSum(img, residual, 0)
			gosa = residual[0]
			done++
		}
		if overlap && prm.Gather && stat == caf.StatOK {
			// The coarray held only ghost planes during the run; publish the
			// final slab for the gather below.
			p.SetSlice(cur)
		}
		sync()
		if me == 1 {
			worst = img.Clock().Now()
			gosaOut = gosa
			statOut = stat
			itersOut = done
			barriersOut = img.Stats.Barriers
			forensicsOut = img.LinkReports()
			pagesOut = img.PageStats()
			metricsOut = img.Metrics()
		}
		if prm.Gather && stat == caf.StatOK {
			if me == 1 {
				field := make([]float32, nx*ny*nz)
				for m := 1; m <= images; m++ {
					mlo, mhi := decompose(ny, images, m)
					mny := mhi - mlo
					sec := caf.Section{
						{Lo: 0, Hi: nx - 1, Step: 1},
						{Lo: 1, Hi: mny, Step: 1},
						{Lo: 0, Hi: nz - 1, Step: 1},
					}
					vals := p.Get(m, sec)
					vi := 0
					for k := 0; k < nz; k++ {
						for j := 0; j < mny; j++ {
							gj := mlo + j
							copy(field[0+nx*(gj+ny*k):nx+nx*(gj+ny*k)], vals[vi:vi+nx])
							vi += nx
						}
					}
				}
				gathered = field
			}
			sync()
		}
		if !prm.FaultAware {
			// Collective teardown (skipped under FaultAware: a survivor cannot
			// barrier with the dead). Keeps sanitized runs leak-clean.
			p.Deallocate()
		}
		atomic.AddInt64(&commOps, img.Stats.Ops())
	})
	if err != nil {
		return res, err
	}
	interior := float64((prm.NX - 2) * (prm.NY - 2) * (prm.NZ - 2))
	res.TimeMs = worst / 1e6
	res.Gosa = gosaOut
	res.Stat = statOut
	res.Iters = itersOut
	res.Barriers = barriersOut
	iters := itersOut
	if iters == 0 {
		iters = 1 // avoid a zero MFLOPS numerator on an immediately-cut run
	}
	res.MFLOPS = flopsPerPt * interior * float64(iters) / (worst / 1e9) / 1e6
	res.Field = gathered
	res.Forensics = forensicsOut
	res.Pages = pagesOut
	res.Metrics = metricsOut
	res.CommOps = commOps
	return res, nil
}

// slab is the geometry of one image's working array: (nx, rows, nz), local
// j-plane j (0 and the last are ghosts) the global plane lo+j-1 of ny.
type slab struct {
	nx, rows, nz int
	lo, ny       int
}

// sweep runs the Jacobi kernel on local j-planes [jlo, jhi], reading cur and
// writing next, and returns gosa plus every point's squared residual, added in
// (k, j, i) order. Global boundaries (i, k extremes; global j = 0 and ny-1)
// stay fixed. The five rows a row's neighbours lie in are sliced out once per
// (k, j): no per-point index arithmetic (check.sh's bounds-check gate).
func (s slab) sweep(next, cur []float32, jlo, jhi int, gosa float64) float64 {
	nx := s.nx
	row := func(a []float32, j, k int) []float32 {
		base := nx * (j + s.rows*k)
		return a[base : base+nx]
	}
	for k := 1; k < s.nz-1; k++ {
		for j := jlo; j <= jhi; j++ {
			gj := s.lo + j - 1
			if gj == 0 || gj == s.ny-1 {
				continue
			}
			gosa = sweepRow(row(next, j, k), row(cur, j, k),
				row(cur, j+1, k), row(cur, j-1, k), row(cur, j, k+1), row(cur, j, k-1), gosa)
		}
	}
	return gosa
}

// sweepRow relaxes the interior of one row: c is the row itself, jp, jm, kp
// and km its neighbours in j and k, all of one length. The float32 expression
// and its order are the reference kernel's, term for term.
func sweepRow(out, c, jp, jm, kp, km []float32, gosa float64) float64 {
	n := len(c)
	out, jp, jm, kp, km = out[:n], jp[:n], jm[:n], kp[:n], km[:n]
	for i := 1; i < n-1; i++ {
		c0 := c[i]
		s0 := c[i+1] + c[i-1] + jp[i] + jm[i] + kp[i] + km[i]
		ss := s0*a4 - c0
		gosa += float64(ss) * float64(ss)
		out[i] = c0 + omega*ss
	}
	return gosa
}

// planeCount returns nyLoc of another image.
func planeCount(ny, images, image int) int {
	lo, hi := decompose(ny, images, image)
	return hi - lo
}

// sectionPlane selects the whole (i, k) plane at local j index j.
func sectionPlane(nx, nz, j int) caf.Section {
	return caf.Section{
		{Lo: 0, Hi: nx - 1, Step: 1},
		{Lo: j, Hi: j, Step: 1},
		{Lo: 0, Hi: nz - 1, Step: 1},
	}
}

// extract copies local j-plane j of a into out (nx*nz elements) in section
// (column-major) order.
func (s slab) extract(out, a []float32, j int) {
	for k := 0; k < s.nz; k++ {
		base := s.nx * (j + s.rows*k)
		copy(out[k*s.nx:(k+1)*s.nx], a[base:base+s.nx])
	}
}

// copyPlane copies local j-plane j from src into dst.
func (s slab) copyPlane(dst, src []float32, j int) {
	for k := 0; k < s.nz; k++ {
		base := s.nx * (j + s.rows*k)
		copy(dst[base:base+s.nx], src[base:base+s.nx])
	}
}
