package caf

import (
	"fmt"

	"cafshmem/internal/gasnet"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
)

// Transport names the communication layer an image runs over: the paper's
// OpenSHMEM mapping (§IV), the GASNet mapping of the original UHCAF backend
// it is compared against, or the MPI-3 RMA mapping — each under one of the
// machine's library cost profiles (the Cray-CAF comparator is the shmem
// transport over the Cray-DMAPP profile with the vendor strided/lock
// strategies).
type Transport struct {
	Kind    TransportKind
	Profile string
}

// Name renders the transport as "<kind>/<profile>".
func (t Transport) Name() string { return t.Kind.String() + "/" + t.Profile }

// Caps declares what a transport's library provides natively. It is the one
// place "this backend has no X" is decided: the op funnel (funnel.go) lowers
// an operation the backend lacks through the shared fallback. The failed-image
// model is no capability: it lives below every library (pgas.PE.Complete).
type Caps struct {
	// NBI: nonblocking puts (put_nbi) whose completion is deferred to the
	// next SyncMemory. Without it PutAsync is the blocking §IV-B translation.
	NBI bool
	// Signal: a signal word delivered behind everything streamed to the same
	// destination (put-with-signal). Without it a signal is quiet + put +
	// quiet.
	Signal bool
	// PerImage: completion of the transfers toward one image only. Without it
	// SyncMemoryImage completes everything, which is stronger.
	PerImage bool
	// Direct: same-node memory can be loaded and stored directly (shmem_ptr),
	// which Options.IntraNodeDirect uses.
	Direct bool
}

var transportCaps = [...]Caps{
	TransportSHMEM: {NBI: true, Signal: true, PerImage: true, Direct: true},
	// put_nbi/get_nbi over the same NBI completion engine; put-with-signal is
	// AM-emulated, paying handler dispatch at the target.
	TransportGASNet: {NBI: true, Signal: true, PerImage: true},
	// Flush-based completion has no per-op split-phase form in this mapping.
	TransportMPI3: {},
}

// Caps returns the capabilities of the transport kind (none for an unknown
// kind, which Run rejects).
func (k TransportKind) Caps() Caps {
	if k < 0 || int(k) >= len(transportCaps) {
		return Caps{}
	}
	return transportCaps[k]
}

// opCAS extends pgas's read-modify-write ops with compare-and-swap, the one
// atomic that takes two operands.
const opCAS = pgas.OpSwap + 1

// backend is one image's handle on its communication library: the narrow
// one-sided layer the paper maps the runtime onto (§IV, Table II). Only the
// funnel calls it. A backend implements the operations its Caps declare;
// the funnel never hands it anything else.
type backend interface {
	// local is this image's own partition.
	local() *pgas.PE
	// malloc collectively allocates size bytes at the same offset on every
	// image; free collectively releases them, and they read as zero when
	// next allocated. Every library allocates from its world's one symmetric
	// heap (pgas.World.Alloc). With stat the allocation completes among the
	// survivors of failed images and reports them.
	malloc(size int64, stat bool) (int64, error)
	free(off, size int64)
	// rma performs the transfer d describes (the image's descriptor, see rmaOp,
	// the caller's again at return), a put with nbi left in flight until the next
	// complete; else it is locally complete at return, a get's d.Local usable.
	rma(d *pgas.RMA, nbi bool)
	// atomic applies op with operand a to the 64-bit word at (target, off) and
	// returns the previous value; opCAS stores b iff the word equals a. A
	// swap or compare-and-swap on a failed target leaves ok false (the
	// repairable lock's toolbox).
	atomic(op pgas.AtomicOp, target int, off, a, b int64) (old int64, ok bool)
	// complete waits for remote completion of this image's outstanding
	// transfers toward target, or toward every image when target is negative.
	// With stat it reports failed targets instead of terminating the job.
	complete(target int, stat bool) error
	// barrier synchronises all images with completion semantics; with stat it
	// completes among the survivors and reports the failed.
	barrier(stat bool) error
}

func wordIdx(off int64) int {
	if off%8 != 0 {
		panic("caf: atomic on unaligned offset")
	}
	return int(off / 8)
}

// --- OpenSHMEM backend (the paper's contribution) ---

type shmemBackend struct {
	pe  *shmem.PE
	all shmem.Sym // whole-partition view for offset-addressed operations
}

// attach makes t, an element of Run's backend table, the backend over pe.
func (t *shmemBackend) attach(pe *shmem.PE) {
	// The backend deliberately views the whole partition as one symmetric
	// object: the CAF runtime above it deals in raw offsets.
	t.pe, t.all = pe, shmem.Sym{Off: 0, Size: pgas.MaxSegmentBytes}
}

func (t *shmemBackend) local() *pgas.PE { return t.pe.Pgas() }

func (t *shmemBackend) malloc(size int64, stat bool) (int64, error) {
	if stat {
		sym, err := t.pe.MallocStat(size)
		return sym.Off, err
	}
	return t.pe.Malloc(size).Off, nil
}

func (t *shmemBackend) free(off, size int64) {
	t.pe.Free(shmem.Sym{Off: off, Size: size})
}

// rma is the library's own entry for a descriptor: the shape and direction
// pick the call of Table II — shmem_putmem, shmem_getmem, shmem_iput, … — there.
func (t *shmemBackend) rma(d *pgas.RMA, nbi bool) {
	switch d.Shape {
	case pgas.Signal:
		wordIdx(d.SigOff)
		d.SigOff = t.all.At(d.SigOff)
	case pgas.Forensic:
		wordIdx(d.Off)
	}
	t.pe.RMA(d, t.all, nbi)
}

// atomic takes the STAT forms of swap and compare-and-swap, the only atomics
// that have them: each is its plain sibling plus the ok.
func (t *shmemBackend) atomic(op pgas.AtomicOp, target int, off, a, b int64) (int64, bool) {
	pe, all, idx := t.pe, t.all, wordIdx(off)
	switch op {
	case pgas.OpSwap:
		return pe.SwapStat(target, all, idx, a)
	case opCAS:
		return pe.CompareSwapStat(target, all, idx, a, b)
	case pgas.OpAdd:
		return pe.FetchAdd(target, all, idx, a), true
	case pgas.OpAnd:
		return pe.FetchAnd(target, all, idx, a), true
	case pgas.OpOr:
		return pe.FetchOr(target, all, idx, a), true
	case pgas.OpXor:
		return pe.FetchXor(target, all, idx, a), true
	}
	panic(fmt.Sprintf("caf: unknown atomic op %d", op))
}

// complete picks the library's escalating form without stat (a destination
// given up on a lossy fabric error-terminates) and its reporting form with.
func (t *shmemBackend) complete(target int, stat bool) error {
	switch {
	case target < 0 && stat:
		return t.pe.QuietStat()
	case target < 0:
		t.pe.Quiet()
	case stat:
		return t.pe.QuietTargetStat(target)
	default:
		t.pe.QuietTarget(target)
	}
	return nil
}

func (t *shmemBackend) barrier(stat bool) error {
	if stat {
		return t.pe.BarrierStat()
	}
	t.pe.Barrier()
	return nil
}

// --- GASNet backend (the original UHCAF backend) ---

type gasnetBackend struct {
	ep  *gasnet.EP
	all gasnet.Seg
}

// attach makes t, an element of Run's backend table, the backend over ep.
func (t *gasnetBackend) attach(ep *gasnet.EP) {
	t.ep, t.all = ep, gasnet.Seg{Off: 0, Size: pgas.MaxSegmentBytes}
}

// registerGasnetHandlers installs the atomic-emulation handlers, indexed by
// their op; call once per world before attaching endpoints. GASNet has no
// remote atomics: the runtime ships each one as a request/reply
// active-message pair, paying handler dispatch at the target (§III),
// answered with the previous value and whether the op was applied.
func registerGasnetHandlers(w *gasnet.World) {
	for op := pgas.OpAdd; op <= opCAS; op++ {
		w.RegisterHandler(int(op), func(tok *gasnet.Token, args []int64) {
			var old uint64
			var ok bool
			if op == opCAS {
				old, ok = tok.CompareSwap64(args[0], uint64(args[1]), uint64(args[2]))
			} else {
				old, ok = tok.RMW64(args[0], op, uint64(args[1]))
			}
			applied := int64(0)
			if ok {
				applied = 1
			}
			tok.Reply(int64(old), applied)
		})
	}
}

func (t *gasnetBackend) local() *pgas.PE { return t.ep.Pgas() }

func (t *gasnetBackend) malloc(size int64, stat bool) (int64, error) {
	if stat {
		seg, err := t.ep.MallocStat(size)
		return seg.Off, err
	}
	return t.ep.Malloc(size).Off, nil
}

// free returns the region to the heap behind the collective Malloc: one
// barrier, like GASNet's own.
func (t *gasnetBackend) free(off, size int64) { t.ep.Free(gasnet.Seg{Off: off, Size: size}) }

func (t *gasnetBackend) rma(d *pgas.RMA, nbi bool) {
	if d.Shape == pgas.Signal {
		wordIdx(d.SigOff)
	}
	t.ep.RMA(d, t.all, nbi)
}

// atomic ships b with every op: arguments cost nothing, and only opCAS's
// handler reads it.
func (t *gasnetBackend) atomic(op pgas.AtomicOp, target int, off, a, b int64) (int64, bool) {
	r := t.ep.RequestSync(target, int(op), off, a, b)
	return r[0], r[1] != 0
}

func (t *gasnetBackend) complete(target int, stat bool) error {
	switch {
	case target < 0 && stat:
		return t.ep.WaitSyncAllStat()
	case target < 0:
		t.ep.WaitSyncAll()
	case stat:
		return t.ep.WaitSyncImageStat(target)
	default:
		t.ep.WaitSyncImage(target)
	}
	return nil
}

func (t *gasnetBackend) barrier(stat bool) error {
	if stat {
		return t.ep.BarrierStat()
	}
	t.ep.Barrier()
	return nil
}

var errBadTransport = fmt.Errorf("caf: unknown transport kind")
