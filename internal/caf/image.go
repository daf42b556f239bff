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
	be   backend
	caps Caps                // opts.Transport's
	prof *fabric.CostProfile // opts.Profile on opts.Machine
	shm  *shmem.PE           // the OpenSHMEM handle under be, nil on other transports
	opts Options

	// local is this image's own partition, for zero-cost local loads and
	// stores (Fortran local array accesses do not go through the network).
	// word is the image's one control-word staging buffer: flags, lock words
	// and single elements are encoded here and handed to a blocking put, which
	// copies synchronously — so a control-word write allocates nothing.
	local *pgas.PE
	word  [8]byte
	op    rmaOp // the image's one transfer descriptor (funnel.go)

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

	// Failed-image support (fail.go). ftMode selects the repairable lock
	// protocol and the STAT-bearing library calls (Options.FaultTolerant, which
	// needs Caps.FaultStat); hasKill/killAt carry this image's scheduled
	// fault-injection time from the Options.FaultPlan.
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
	// Per transport: the library world, and how a PE attaches to it.
	var (
		pw       *pgas.World
		attach   func(*pgas.PE) (backend, *shmem.PE)
		finalize = func() error { return nil }
	)
	switch o.Transport {
	case TransportSHMEM:
		w, err := shmem.NewWorld(shmem.Config{Machine: o.Machine, Profile: o.Profile, Sanitize: o.Sanitize, FaultPlan: o.FaultPlan, Options: o.Options}, images)
		if err != nil {
			return err
		}
		pw, finalize = w.PgasWorld(), w.FinalizeErr
		attach = func(p *pgas.PE) (backend, *shmem.PE) {
			pe := w.Attach(p)
			return newShmemBackend(pe), pe
		}
	case TransportGASNet:
		w, err := gasnet.NewWorld(gasnet.Config{Machine: o.Machine, Profile: o.Profile, Options: o.Options}, images)
		if err != nil {
			return err
		}
		registerGasnetHandlers(w)
		pw = w.PgasWorld()
		attach = func(p *pgas.PE) (backend, *shmem.PE) { return newGasnetBackend(w.Attach(p)), nil }
	case TransportMPI3:
		w, err := mpi3.NewWorld(mpi3.Config{Machine: o.Machine, Profile: o.Profile, Options: o.Options}, images)
		if err != nil {
			return err
		}
		pw = w.PgasWorld()
		attach = func(p *pgas.PE) (backend, *shmem.PE) { return newMPI3Backend(w, w.Attach(p)), nil }
	default:
		return errBadTransport
	}
	defer pw.Close()
	pw.SetActivePairsPerNode(o.ActivePairsPerNode)
	if err := pw.Run(func(p *pgas.PE) {
		be, shm := attach(p)
		body(newImage(be, shm, o))
	}); err != nil {
		return err
	}
	return finalize()
}

func newImage(be backend, shm *shmem.PE, opts Options) *Image {
	img := &Image{
		be:       be,
		caps:     opts.Transport.Caps(),
		prof:     opts.Machine.MustProfile(opts.Profile),
		shm:      shm,
		opts:     opts,
		local:    be.local(),
		held:     map[lockKey]int64{},
		syncSeen: map[int]int64{},
		ftMode:   opts.FaultTolerant,
	}
	if at, ok := opts.FaultPlan.KillTime(img.local.ID); ok {
		img.hasKill, img.killAt = true, at
	}
	// Collective start-up allocations, identical on all images and therefore
	// performed in the same order everywhere. The mostly-idle non-symmetric
	// staging buffer costs no host memory despite its size: partitions back
	// pages on first write, so its unused interior never materialises.
	img.nonsym = newNSAlloc(img.malloc(opts.NonSymBytes, true), opts.NonSymBytes)
	img.syncOff = img.malloc(int64(img.NumImages())*8, true)
	img.ctlOff = img.malloc(2*collMaxRounds*8, true)
	img.barrier()
	return img
}

// malloc collectively allocates size bytes of symmetric memory. A runtime
// allocation — sync counters, collective control flags, scratch areas:
// objects that live for the whole job by design — is exempt from the
// sanitizer's leak report.
func (img *Image) malloc(size int64, runtime bool) int64 {
	off, _ := img.be.malloc(size, false) // no stat: nothing to report
	if runtime && img.shm != nil {
		//shmemvet:allow symcheck
		img.shm.World().MarkInternal(shmem.Sym{Off: off, Size: size})
	}
	return off
}

// ThisImage returns the executing image's index, 1-based (this_image()).
func (img *Image) ThisImage() int { return img.local.ID + 1 }

// NumImages returns the number of images (num_images()).
func (img *Image) NumImages() int { return img.local.World().NumPEs() }

// Clock exposes the image's virtual clock for harness measurement.
func (img *Image) Clock() *fabric.Clock { return &img.local.Clock }

// Transport identifies the underlying communication layer (observability).
func (img *Image) Transport() Transport { return Transport{img.opts.Transport, img.prof.Name} }

// SHMEM returns the underlying OpenSHMEM handle when the runtime is mapped
// onto OpenSHMEM, or nil on other transports. This enables the hybrid
// CAF+OpenSHMEM programming the paper motivates in §I: "such an
// implementation allows us to incorporate OpenSHMEM calls directly into CAF
// applications ... and explore the ramifications of such a hybrid model."
// The returned handle shares the image's symmetric heap and virtual clock,
// so raw shmem operations interoperate with coarray accesses.
func (img *Image) SHMEM() *shmem.PE { return img.shm }

// Options returns the configuration this image runs with.
func (img *Image) Options() Options { return img.opts }

// SyncAll executes "sync all": completes this image's outstanding
// communication and rendezvouses with every other image. Without a STAT
// specifier, involvement of a failed or stopped image is error termination
// (a panic that poisons the job); SyncAllStat returns it instead.
func (img *Image) SyncAll() {
	img.pollFault()
	img.quiet()
	img.barrier()
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
	img.amo(pgas.OpAdd, j-1, img.syncOff+int64(img.ThisImage()-1)*8, 1, 0)
}

// awaitImage blocks until one more signal from image j has arrived than this
// image has already consumed.
func (img *Image) awaitImage(j int) {
	want := img.syncSeen[j-1] + 1
	img.syncSeen[j-1] = want
	img.wait(img.syncOff+int64(j-1)*8, pgas.CmpGE, want)
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

func (img *Image) checkImage(j int) {
	if j < 1 || j > img.NumImages() {
		img.badImage(j)
	}
}

// badImage is checkImage's panic, kept out of line so that checkImage inlines.
//
//go:noinline
func (img *Image) badImage(j int) {
	panic(fmt.Sprintf("caf: image index %d out of range [1,%d]", j, img.NumImages()))
}
