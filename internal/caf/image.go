// Package caf implements the Coarray Fortran runtime of the paper: the
// parallel-processing features the Fortran 2008 front-end lowers to runtime
// calls, mapped onto OpenSHMEM (or, for comparison, GASNet). It is the
// repository's core library.
//
// Images are 1-based, as in Fortran. A Coarray is symmetric,
// remotely-accessible storage with the same local shape on every image;
// co-indexed access (x(…)[j] in Fortran) is expressed with the Put/Get
// methods. Multi-dimensional array sections transfer through one of the
// strided algorithms of §IV-C, per-image remote locks follow the adapted MCS
// algorithm of §IV-D, and synchronisation, atomics and collectives map per
// Table II.
package caf

import (
	"fmt"

	"cafshmem/internal/fabric"
	"cafshmem/internal/gasnet"
	"cafshmem/internal/mpi3"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
)

// Image is the per-image runtime handle (the "this image" state).
type Image struct {
	tr   Transport
	opts Options

	// local is this image's own partition, for zero-cost local loads and
	// stores (Fortran local array accesses do not go through the network).
	// word is the image's one control-word staging buffer: flags, lock words
	// and single elements are encoded here and handed to PutMem, which copies
	// synchronously — so a control-word write allocates nothing.
	local *pgas.PE
	word  [8]byte

	// Pre-allocated buffer for non-symmetric remotely-accessible data
	// (§IV-A, §IV-D): every image reserves the same symmetric region and
	// manages its own allocations within it.
	nonsym *nsAlloc

	// syncOff is the base of the sync-images counter array: n 64-bit inbound
	// counters (slot i counts signals from image index i). syncSeen tracks
	// consumed signals per partner, lazily: sync images partner sets are
	// small and local in real programs, so a dense per-image array would be
	// the job's only O(images²) memory (≈800 MB of host memory at 10k
	// images) — the map stays proportional to partners actually synced with.
	syncOff  int64
	syncSeen map[int]int64

	// ctlOff is the base of the whole-job collective control flags; world is
	// the whole-job collective group (see group.go), built lazily.
	ctlOff int64
	world  *group

	// held maps (lock offset, image) -> local qnode offset for locks this
	// image currently holds — the hash table of §IV-D.
	held map[lockKey]int64

	// Nonblocking-RMA support (async.go). nbi is the transport's
	// nonblocking-ops surface, nil when the transport has none (MPI-3 RMA,
	// whose flush-based completion has no per-op split-phase form in this
	// mapping) — async puts then degrade to the blocking §IV-B path.
	nbi nbiOps

	// Failed-image support (fail.go). fault is the transport's fault-ops
	// surface (nil when unsupported); ftMode selects the repairable lock
	// protocol; hasKill/killAt carry this image's scheduled fault-injection
	// time from the Options.FaultPlan.
	fault   faultOps
	ftMode  bool
	hasKill bool
	killAt  float64
	dead    bool // FailImage ran: the goroutine is unwinding (see checkAlive)

	// Stats counts runtime-issued communication operations (observability
	// and ablation tests).
	Stats Stats
}

// Stats counts the communication operations the runtime issued.
type Stats struct {
	Puts, Gets    int64
	StridedCalls  int64
	Quiets        int64
	Atomics       int64
	LocksAcquired int64
	LocksReleased int64
	// LockTakeovers counts MCS lock acquisitions completed by queue repair
	// after the previous holder's image failed (fail.go / lock.go).
	LockTakeovers int64
	// DirectOps counts intra-node accesses served by direct load/store
	// (Options.IntraNodeDirect, the §VII future-work path).
	DirectOps int64
	// AsyncPuts counts transfers issued through the nonblocking path
	// (PutAsync / put_nbi, async.go); they complete at the next SyncMemory.
	AsyncPuts int64
	// Barriers counts whole-job barrier statements this image executed
	// (SyncAll / SyncAllStat). Signal-driven schedules assert zero of these
	// in steady state.
	Barriers int64
}

// Ops returns the total communication operations the counters record — the
// denominator the wall-clock scaling benchmarks use for ns per simulated op.
func (s Stats) Ops() int64 {
	return s.Puts + s.Gets + s.StridedCalls + s.Quiets + s.Atomics +
		s.LocksAcquired + s.LocksReleased + s.DirectOps + s.AsyncPuts + s.Barriers
}

// Run launches a CAF program: images copies of body, 1-based ranks, over the
// configured transport. It is the runtime analogue of launching a compiled
// CAF executable. The job's world is closed when Run returns: its partition
// pages go back to the pgas page pools for the next job.
func Run(images int, opts Options, body func(*Image)) error {
	o, err := opts.withDefaults()
	if err != nil {
		return err
	}
	switch o.Transport {
	case TransportSHMEM:
		w, err := shmem.NewWorld(shmem.Config{Machine: o.Machine, Profile: o.Profile, Sanitize: o.Sanitize, FaultPlan: o.FaultPlan, Engine: o.Engine, Workers: o.Workers, BarrierShards: o.BarrierShards}, images)
		if err != nil {
			return err
		}
		defer w.PgasWorld().Close()
		w.PgasWorld().SetActivePairsPerNode(o.ActivePairsPerNode)
		if err := w.PgasWorld().Run(func(p *pgas.PE) {
			img := newImage(newShmemTransport(w.Attach(p)), o)
			body(img)
		}); err != nil {
			return err
		}
		return w.FinalizeErr()
	case TransportGASNet:
		w, err := gasnet.NewWorld(gasnet.Config{Machine: o.Machine, Profile: o.Profile, Engine: o.Engine, Workers: o.Workers, BarrierShards: o.BarrierShards}, images)
		if err != nil {
			return err
		}
		defer w.PgasWorld().Close()
		registerGasnetHandlers(w)
		w.PgasWorld().SetActivePairsPerNode(o.ActivePairsPerNode)
		return w.PgasWorld().Run(func(p *pgas.PE) {
			img := newImage(newGasnetTransport(w.Attach(p)), o)
			body(img)
		})
	case TransportMPI3:
		w, err := mpi3.NewWorld(mpi3.Config{Machine: o.Machine, Profile: o.Profile, Engine: o.Engine, Workers: o.Workers, BarrierShards: o.BarrierShards}, images)
		if err != nil {
			return err
		}
		defer w.PgasWorld().Close()
		w.PgasWorld().SetActivePairsPerNode(o.ActivePairsPerNode)
		return w.PgasWorld().Run(func(p *pgas.PE) {
			img := newImage(newMPI3Transport(w, w.Attach(p)), o)
			body(img)
		})
	default:
		return errBadTransport
	}
}

func newImage(tr Transport, opts Options) *Image {
	if opts.Tracer != nil {
		tr = &tracingTransport{inner: tr, tr: opts.Tracer}
	}
	img := &Image{
		tr:    tr,
		opts:  opts,
		local: tr.(localMem).pgasPE(),
		held:  map[lockKey]int64{},
	}
	img.nbi = asNBIOps(tr)
	if opts.FaultTolerant || !opts.FaultPlan.Empty() {
		img.fault = asFaultOps(tr)
		img.ftMode = img.fault != nil
	}
	if at, ok := opts.FaultPlan.KillTime(tr.PE()); ok {
		img.hasKill, img.killAt = true, at
	}
	// Collective start-up allocations, identical on all images and therefore
	// performed in the same order everywhere. The mostly-idle non-symmetric
	// staging buffer costs no host memory despite its size: partitions back
	// pages on first write, so its unused interior never materialises.
	nsBase := tr.Malloc(opts.NonSymBytes)
	img.nonsym = newNSAlloc(nsBase, opts.NonSymBytes)
	markRuntimeAlloc(tr, nsBase, opts.NonSymBytes)
	img.syncOff = tr.Malloc(int64(tr.NPEs()) * 8)
	img.syncSeen = map[int]int64{}
	markRuntimeAlloc(tr, img.syncOff, int64(tr.NPEs())*8)
	img.ctlOff = tr.Malloc(2 * collMaxRounds * 8)
	markRuntimeAlloc(tr, img.ctlOff, 2*collMaxRounds*8)
	tr.Barrier()
	return img
}

// ThisImage returns the executing image's index, 1-based (this_image()).
func (img *Image) ThisImage() int { return img.tr.PE() + 1 }

// NumImages returns the number of images (num_images()).
func (img *Image) NumImages() int { return img.tr.NPEs() }

// Clock exposes the image's virtual clock for harness measurement.
func (img *Image) Clock() *fabric.Clock { return img.tr.Clock() }

// Transport returns the underlying communication layer (observability).
func (img *Image) Transport() Transport { return img.tr }

// SHMEM returns the underlying OpenSHMEM handle when the runtime is mapped
// onto OpenSHMEM, or nil on other transports. This enables the hybrid
// CAF+OpenSHMEM programming the paper motivates in §I: "such an
// implementation allows us to incorporate OpenSHMEM calls directly into CAF
// applications ... and explore the ramifications of such a hybrid model."
// The returned handle shares the image's symmetric heap and virtual clock,
// so raw shmem operations interoperate with coarray accesses.
func (img *Image) SHMEM() *shmem.PE {
	tr := img.tr
	for {
		if t, ok := tr.(*shmemTransport); ok {
			return t.pe
		}
		u, ok := tr.(interface{ unwrap() Transport })
		if !ok {
			return nil
		}
		tr = u.unwrap()
	}
}

// Options returns the configuration this image runs with.
func (img *Image) Options() Options { return img.opts }

// SyncAll executes "sync all": completes this image's outstanding
// communication and rendezvouses with every other image. Without a STAT
// specifier, involvement of a failed or stopped image is error termination
// (a panic that poisons the job); SyncAllStat returns it instead.
func (img *Image) SyncAll() {
	img.pollFault()
	img.quiet()
	img.tr.Barrier()
	img.Stats.Barriers++
}

// SyncImages executes "sync images(list)": pairwise synchronisation with
// each listed image (1-based indices). Each pair's signals are counted, so
// repeated sync images statements match up one-to-one, as the standard
// requires.
func (img *Image) SyncImages(list ...int) {
	img.pollFault()
	img.quiet()
	me := img.ThisImage()
	for _, j := range list {
		img.checkImage(j)
		if j == me {
			continue
		}
		img.signalImage(j)
	}
	for _, j := range list {
		if j == me {
			continue
		}
		img.awaitImage(j)
	}
}

// signalImage increments image j's inbound counter slot for this image —
// the asymmetric half of pairwise synchronisation, also used by the team
// dissemination barrier.
func (img *Image) signalImage(j int) {
	img.tr.FetchAdd64(j-1, img.syncOff+int64(img.ThisImage()-1)*8, 1)
	img.Stats.Atomics++
}

// awaitImage blocks until one more signal from image j has arrived than this
// image has already consumed.
func (img *Image) awaitImage(j int) {
	want := img.syncSeen[j-1] + 1
	img.syncSeen[j-1] = want
	img.tr.WaitLocal64(img.syncOff+int64(j-1)*8, pgas.CmpGE, want)
}

// putWord writes one 64-bit control word into image index target's (0-based)
// partition with an ordinary put, staged through the image's word buffer.
func (img *Image) putWord(target int, off int64, v uint64) {
	pgas.Store(img.word[:], v)
	img.tr.PutMem(target, off, img.word[:])
}

// storeLocalWord stores a 64-bit word into this image's own partition,
// visible at once.
func (img *Image) storeLocalWord(off int64, v uint64) {
	p := img.local
	p.World().WriteUint64(p.ID, off, v, p.Clock.Now())
}

// localWord loads a 64-bit word of this image's own partition (free in
// virtual time, like every local access).
func (img *Image) localWord(off int64) uint64 {
	return img.local.World().ReadUint64(img.local.ID, off)
}

// quiet completes outstanding puts per the §IV-B translation rule.
func (img *Image) quiet() {
	img.tr.Quiet()
	img.Stats.Quiets++
}

// maybeQuiet applies the conservative quiet-after-put rule unless the
// ablation option deferred it to synchronisation points.
func (img *Image) maybeQuiet() {
	if !img.opts.DeferredQuiet {
		img.quiet()
	}
}

func (img *Image) checkImage(j int) {
	if j < 1 || j > img.NumImages() {
		panic(fmt.Sprintf("caf: image index %d out of range [1,%d]", j, img.NumImages()))
	}
}
