package caf

import (
	"fmt"

	"cafshmem/internal/fabric"
	"cafshmem/internal/gasnet"
	"cafshmem/internal/pgas"
	"cafshmem/internal/shmem"
)

// Transport is the communication layer the CAF runtime is mapped onto. The
// paper's contribution is precisely this mapping for OpenSHMEM (§IV); the
// GASNet transport reproduces the original UHCAF backend it is compared
// against, and the Cray-CAF comparator is the shmem transport over the
// Cray-DMAPP profile with the vendor strided/lock strategies.
type Transport interface {
	Name() string
	PE() int
	NPEs() int

	// Malloc collectively allocates size bytes of symmetric (same offset on
	// every image) remotely-accessible memory and returns the offset. Free
	// collectively releases it (a no-op on transports without a freeing
	// allocator, like GASNet's attached segment).
	Malloc(size int64) int64
	Free(off, size int64)

	// PutMem writes with local-completion semantics; remote completion
	// requires Quiet. GetMem blocks until data is locally usable.
	PutMem(target int, off int64, data []byte)
	GetMem(target int, off int64, dst []byte)

	// PutMemV / GetMemV are the vectored multi-run forms of PutMem/GetMem:
	// len(offs) runs of runBytes bytes each, held densely in src/dst, with
	// run i at byte offset offs[i]. Modelled cost is identical to len(offs)
	// individual calls; transports that can batch host-side execution (one
	// target-lock acquisition on OpenSHMEM) do so, others loop.
	PutMemV(target int, offs []int64, runBytes int, src []byte)
	GetMemV(target int, offs []int64, runBytes int, dst []byte)

	// PutStrided1D scatters len(src)/elemSize dense source elements to the
	// target at strideBytes spacing (shmem_iput); GetStrided1D gathers. Their
	// cost depends on the library's strided implementation quality.
	PutStrided1D(target int, off, strideBytes int64, elemSize int, src []byte)
	GetStrided1D(target int, off, strideBytes int64, elemSize int, dst []byte)

	// Quiet waits for remote completion of outstanding puts (shmem_quiet).
	Quiet()

	// Remote atomics on 64-bit words (the MCS lock's toolbox).
	Swap64(target int, off int64, v int64) int64
	CompareSwap64(target int, off int64, expected, desired int64) int64
	FetchAdd64(target int, off int64, v int64) int64
	FetchAnd64(target int, off int64, v int64) int64
	FetchOr64(target int, off int64, v int64) int64
	FetchXor64(target int, off int64, v int64) int64

	// DirectWrite / DirectRead implement the paper's §VII future work: when
	// the target is on the same node and the library can expose its memory
	// (shmem_ptr), access it with load/store instructions at memory-copy
	// cost, bypassing the communication path. They return false when direct
	// access is impossible (cross-node target, or no shmem_ptr equivalent).
	DirectWrite(target int, off int64, data []byte) bool
	DirectRead(target int, off int64, dst []byte) bool

	// WaitLocal64 spins on a local 64-bit word until "word cmp operand" holds
	// (shmem_wait_until's typed form — no predicate closure crosses the
	// interface), adopting the causal timestamp of the satisfying write.
	WaitLocal64(off int64, cmp pgas.Cmp, operand int64)

	// Barrier synchronises all images with completion semantics.
	Barrier()

	Clock() *fabric.Clock
	Machine() *fabric.Machine
	SameNode(a, b int) bool
	StridedMode() fabric.StridedMode
}

// --- OpenSHMEM transport (the paper's contribution) ---

type shmemTransport struct {
	pe  *shmem.PE
	all shmem.Sym // whole-partition view for offset-addressed operations
}

func newShmemTransport(pe *shmem.PE) *shmemTransport {
	// The transport deliberately views the whole partition as one symmetric
	// object: the CAF runtime above it deals in raw offsets.
	//shmemvet:allow symcheck
	return &shmemTransport{pe: pe, all: shmem.Sym{Off: 0, Size: pgas.MaxSegmentBytes}}
}

func (t *shmemTransport) Name() string { return "shmem/" + t.pe.World().Profile().Name }
func (t *shmemTransport) PE() int      { return t.pe.MyPE() }
func (t *shmemTransport) NPEs() int    { return t.pe.NumPEs() }

func (t *shmemTransport) Malloc(size int64) int64 { return t.pe.Malloc(size).Off }

func (t *shmemTransport) Free(off, size int64) {
	//shmemvet:allow symcheck
	t.pe.Free(shmem.Sym{Off: off, Size: size})
}

func (t *shmemTransport) pgasPE() *pgas.PE { return t.pe.Pgas() }

// markRuntimeAlloc exempts a runtime-internal symmetric allocation (sync
// counters, collective control flags, scratch areas — objects that live for
// the whole job by design) from the sanitizer's leak report. No-op on other
// transports or with the sanitizer disabled.
func markRuntimeAlloc(tr Transport, off, size int64) {
	for {
		if t, ok := tr.(*shmemTransport); ok {
			//shmemvet:allow symcheck
			t.pe.World().MarkInternal(shmem.Sym{Off: off, Size: size})
			return
		}
		u, ok := tr.(interface{ unwrap() Transport })
		if !ok {
			return
		}
		tr = u.unwrap()
	}
}

func (t *shmemTransport) PutMem(target int, off int64, data []byte) {
	t.pe.PutMem(target, t.all, off, data)
}

func (t *shmemTransport) GetMem(target int, off int64, dst []byte) {
	t.pe.GetMem(target, t.all, off, dst)
}

func (t *shmemTransport) PutMemV(target int, offs []int64, runBytes int, src []byte) {
	t.pe.PutMemV(target, t.all, offs, runBytes, src)
}

func (t *shmemTransport) GetMemV(target int, offs []int64, runBytes int, dst []byte) {
	t.pe.GetMemV(target, t.all, offs, runBytes, dst)
}

func (t *shmemTransport) PutStrided1D(target int, off, strideBytes int64, elemSize int, src []byte) {
	t.pe.IPutMem(target, t.all, off, strideBytes, elemSize, src)
}

func (t *shmemTransport) GetStrided1D(target int, off, strideBytes int64, elemSize int, dst []byte) {
	t.pe.IGetMem(target, t.all, off, strideBytes, elemSize, dst)
}

func (t *shmemTransport) Quiet() { t.pe.Quiet() }

func (t *shmemTransport) wordIdx(off int64) int {
	if off%8 != 0 {
		panic("caf: atomic on unaligned offset")
	}
	return int(off / 8)
}

func (t *shmemTransport) Swap64(target int, off int64, v int64) int64 {
	return t.pe.Swap(target, t.all, t.wordIdx(off), v)
}

func (t *shmemTransport) CompareSwap64(target int, off int64, expected, desired int64) int64 {
	return t.pe.CompareSwap(target, t.all, t.wordIdx(off), expected, desired)
}

func (t *shmemTransport) FetchAdd64(target int, off int64, v int64) int64 {
	return t.pe.FetchAdd(target, t.all, t.wordIdx(off), v)
}

func (t *shmemTransport) FetchAnd64(target int, off int64, v int64) int64 {
	return t.pe.FetchAnd(target, t.all, t.wordIdx(off), v)
}

func (t *shmemTransport) FetchOr64(target int, off int64, v int64) int64 {
	return t.pe.FetchOr(target, t.all, t.wordIdx(off), v)
}

func (t *shmemTransport) FetchXor64(target int, off int64, v int64) int64 {
	return t.pe.FetchXor(target, t.all, t.wordIdx(off), v)
}

// directIssueNs is the fixed instruction-issue cost of a direct load/store
// access (no library involvement at all).
const directIssueNs = 20

func (t *shmemTransport) directGap() float64 {
	// A direct load/store streams at memory-copy speed: roughly twice the
	// intra-node library bandwidth, with none of its per-call latency (no
	// injection, no loopback, no completion tracking).
	return t.pe.World().Profile().IntraGapNsPerByte / 2
}

func (t *shmemTransport) DirectWrite(target int, off int64, data []byte) bool {
	if !t.SameNode(t.PE(), target) {
		return false
	}
	t.pe.Clock().Advance(directIssueNs + float64(len(data))*t.directGap())
	t.pe.World().PgasWorld().Write(target, off, data, t.pe.Clock().Now())
	return true
}

func (t *shmemTransport) DirectRead(target int, off int64, dst []byte) bool {
	if !t.SameNode(t.PE(), target) {
		return false
	}
	t.pe.Clock().Advance(directIssueNs + float64(len(dst))*t.directGap())
	t.pe.World().PgasWorld().Read(target, off, dst)
	return true
}

func (t *shmemTransport) WaitLocal64(off int64, cmp pgas.Cmp, operand int64) {
	_, ts := t.pe.Pgas().WaitWord(off, cmp, operand)
	t.pe.Clock().MergeAtLeast(ts)
	t.pe.Clock().Advance(t.pe.World().Profile().OverheadNs)
}

func (t *shmemTransport) Barrier() { t.pe.Barrier() }

// --- nonblocking-RMA extension (async.go) ---

// nbiOps is the extension surface for nonblocking one-sided writes
// (shmem_put_nbi and friends, OpenSHMEM 1.3 §9.5). The OpenSHMEM transport
// maps it onto the native *_nbi calls; the GASNet transport maps it onto
// gasnet_put_nbi/get_nbi over the same NBI completion engine, so PutAsync
// genuinely overlaps there too (put-with-signal is AM-emulated, paying
// handler dispatch at the target). The MPI-3 transport provides none — its
// flush-based completion has no per-op split-phase form in this mapping —
// so asNBIOps returns nil there and callers degrade to the blocking path.
//
// Contract: source buffers passed to the PutNBI forms are owned by the
// runtime until the next Quiet/QuietStat — callers must not reuse or pool
// them earlier (the sanitizer holds a live view to detect exactly that).
type nbiOps interface {
	PutMemNBI(target int, off int64, data []byte)
	PutMemVNBI(target int, offs []int64, runBytes int, src []byte)
	PutStrided1DNBI(target int, off, strideBytes int64, elemSize int, src []byte)
	GetMemNBI(target int, off int64, dst []byte)
	// PutSignal fuses a data payload and an 8-byte signal word into one
	// blocking injection toward target (shmem_put_signal): local completion
	// at return, no quiet needed before the consumer may trust the flag.
	// PutSignalNBI is its nonblocking sibling (shmem_put_signal_nbi): the
	// fused transfer rides the per-destination completion stream, so a
	// consumer that observes the signal sees the payload and every transfer
	// previously streamed to it (signal-mediated completion). data may be
	// empty in both to send just the doorbell.
	PutSignal(target int, off int64, data []byte, sigOff int64, sigVal int64)
	PutSignalNBI(target int, off int64, data []byte, sigOff int64, sigVal int64)
	// QuietImage completes outstanding operations toward one image only —
	// the per-destination quiet communication contexts make expressible
	// (SYNC MEMORY's image-selective strengthening). Other images' transfers
	// stay in flight. QuietImageStat additionally reports whether that
	// destination had failed.
	QuietImage(target int)
	QuietImageStat(target int) error
	// QuietStat completes all outstanding operations (blocking and
	// nonblocking) and reports whether any nonblocking target had failed —
	// the STAT-bearing form chaos-mode SyncMemoryStat needs.
	QuietStat() error
}

// asNBIOps unwraps decorators until it finds a transport with nonblocking
// support.
func asNBIOps(tr Transport) nbiOps {
	for {
		if n, ok := tr.(nbiOps); ok {
			return n
		}
		u, ok := tr.(interface{ unwrap() Transport })
		if !ok {
			return nil
		}
		tr = u.unwrap()
	}
}

func (t *shmemTransport) PutMemNBI(target int, off int64, data []byte) {
	t.pe.PutMemNBI(target, t.all, off, data)
}

func (t *shmemTransport) PutMemVNBI(target int, offs []int64, runBytes int, src []byte) {
	t.pe.PutMemVNBI(target, t.all, offs, runBytes, src)
}

func (t *shmemTransport) PutStrided1DNBI(target int, off, strideBytes int64, elemSize int, src []byte) {
	t.pe.IPutMemNBI(target, t.all, off, strideBytes, elemSize, src)
}

func (t *shmemTransport) GetMemNBI(target int, off int64, dst []byte) {
	t.pe.GetMemNBI(target, t.all, off, dst)
}

func (t *shmemTransport) PutSignal(target int, off int64, data []byte, sigOff int64, sigVal int64) {
	t.pe.PutSignal(target, t.all, off, data, t.all, t.wordIdx(sigOff), sigVal)
}

func (t *shmemTransport) PutSignalNBI(target int, off int64, data []byte, sigOff int64, sigVal int64) {
	t.pe.PutSignalNBI(target, t.all, off, data, t.all, t.wordIdx(sigOff), sigVal)
}

func (t *shmemTransport) QuietImage(target int) { t.pe.QuietTarget(target) }

func (t *shmemTransport) QuietImageStat(target int) error { return t.pe.QuietTargetStat(target) }

func (t *shmemTransport) QuietStat() error { return t.pe.QuietStat() }

// --- fault-tolerance extension (fail.go) ---

// faultOps is the extension surface the failed-image runtime needs beyond
// Transport. Only the OpenSHMEM transport provides it (Fortran 2018 failed
// images are this repository's beyond-paper extension, built on the SHMEM
// mapping); asFaultOps returns nil elsewhere and the runtime degrades to the
// fail-stop behaviour (hangs become watchdog errors, never wrong answers).
type faultOps interface {
	BarrierStat() error
	MallocStat(size int64) (int64, error)
	Swap64Stat(target int, off int64, v int64) (int64, bool)
	CompareSwap64Stat(target int, off int64, expected, desired int64) (int64, bool)
	ReadWord64(target int, off int64) uint64
	WaitLocal64Stat(off int64, cmp pgas.Cmp, operand int64, onEvent func() error) error
	PgasWorld() *pgas.World
}

// asFaultOps unwraps decorators until it finds a transport with fault support.
func asFaultOps(tr Transport) faultOps {
	for {
		if f, ok := tr.(faultOps); ok {
			return f
		}
		u, ok := tr.(interface{ unwrap() Transport })
		if !ok {
			return nil
		}
		tr = u.unwrap()
	}
}

func (t *shmemTransport) BarrierStat() error { return t.pe.BarrierStat() }

func (t *shmemTransport) MallocStat(size int64) (int64, error) {
	sym, err := t.pe.MallocStat(size)
	return sym.Off, err
}

func (t *shmemTransport) Swap64Stat(target int, off int64, v int64) (int64, bool) {
	return t.pe.SwapStat(target, t.all, t.wordIdx(off), v)
}

func (t *shmemTransport) CompareSwap64Stat(target int, off int64, expected, desired int64) (int64, bool) {
	return t.pe.CompareSwapStat(target, t.all, t.wordIdx(off), expected, desired)
}

func (t *shmemTransport) ReadWord64(target int, off int64) uint64 {
	return t.pe.ReadWord64(target, t.all, t.wordIdx(off))
}

func (t *shmemTransport) WaitLocal64Stat(off int64, cmp pgas.Cmp, operand int64, onEvent func() error) error {
	_, ts, err := t.pe.Pgas().WaitWordStat(off, cmp, operand, onEvent)
	if err != nil {
		return err
	}
	t.pe.Clock().MergeAtLeast(ts)
	t.pe.Clock().Advance(t.pe.World().Profile().OverheadNs)
	return nil
}

func (t *shmemTransport) PgasWorld() *pgas.World { return t.pe.World().PgasWorld() }

func (t *shmemTransport) Clock() *fabric.Clock     { return t.pe.Clock() }
func (t *shmemTransport) Machine() *fabric.Machine { return t.pe.World().PgasWorld().Machine() }
func (t *shmemTransport) SameNode(a, b int) bool   { return t.Machine().SameNode(a, b) }
func (t *shmemTransport) StridedMode() fabric.StridedMode {
	return t.pe.World().Profile().Strided
}

// --- GASNet transport (the original UHCAF backend) ---

// AM handler indices the GASNet transport registers for atomic emulation.
// GASNet has no remote atomics; the runtime ships each AMO as a request/reply
// active-message pair, paying handler dispatch at the target (§III).
const (
	amSwap = iota
	amCSwap
	amFAdd
	amFAnd
	amFOr
	amFXor
)

type gasnetTransport struct {
	ep  *gasnet.EP
	all gasnet.Seg
}

func newGasnetTransport(ep *gasnet.EP) *gasnetTransport {
	return &gasnetTransport{ep: ep, all: gasnet.Seg{Off: 0, Size: pgas.MaxSegmentBytes}}
}

// registerGasnetHandlers installs the AMO emulation handlers; call once per
// world before attaching endpoints.
func registerGasnetHandlers(w *gasnet.World) {
	w.RegisterHandler(amSwap, func(tok *gasnet.Token, _ []byte, args []int64) {
		tok.Reply(int64(tok.RMW64(args[0], pgas.OpSwap, uint64(args[1]))))
	})
	w.RegisterHandler(amCSwap, func(tok *gasnet.Token, _ []byte, args []int64) {
		old := tok.ReadU64(args[0])
		if old == uint64(args[1]) {
			tok.WriteU64(args[0], uint64(args[2]))
		}
		tok.Reply(int64(old))
	})
	w.RegisterHandler(amFAdd, func(tok *gasnet.Token, _ []byte, args []int64) {
		tok.Reply(int64(tok.RMW64(args[0], pgas.OpAdd, uint64(args[1]))))
	})
	w.RegisterHandler(amFAnd, func(tok *gasnet.Token, _ []byte, args []int64) {
		tok.Reply(int64(tok.RMW64(args[0], pgas.OpAnd, uint64(args[1]))))
	})
	w.RegisterHandler(amFOr, func(tok *gasnet.Token, _ []byte, args []int64) {
		tok.Reply(int64(tok.RMW64(args[0], pgas.OpOr, uint64(args[1]))))
	})
	w.RegisterHandler(amFXor, func(tok *gasnet.Token, _ []byte, args []int64) {
		tok.Reply(int64(tok.RMW64(args[0], pgas.OpXor, uint64(args[1]))))
	})
}

func (t *gasnetTransport) Name() string { return "gasnet/" + t.ep.World().Profile().Name }
func (t *gasnetTransport) PE() int      { return t.ep.MyNode() }
func (t *gasnetTransport) NPEs() int    { return t.ep.Nodes() }

func (t *gasnetTransport) Malloc(size int64) int64 { return t.ep.Malloc(size).Off }

// Free is collective but does not return space: GASNet attaches a raw
// segment and leaves allocation policy to the runtime; the original UHCAF
// GASNet backend likewise never returns segment space to the conduit.
func (t *gasnetTransport) Free(off, size int64) { t.ep.Barrier() }

func (t *gasnetTransport) pgasPE() *pgas.PE { return t.ep.Pgas() }

func (t *gasnetTransport) PutMem(target int, off int64, data []byte) {
	t.ep.Put(target, t.all, off, data)
}

func (t *gasnetTransport) GetMem(target int, off int64, dst []byte) {
	t.ep.Get(target, t.all, off, dst)
}

// PutMemV / GetMemV: GASNet has no vectored putmem either; the runtime loops
// contiguous transfers, preserving the original UHCAF-GASNet behaviour (and
// its virtual-time results) run for run.
func (t *gasnetTransport) PutMemV(target int, offs []int64, runBytes int, src []byte) {
	for i, off := range offs {
		t.ep.Put(target, t.all, off, src[i*runBytes:(i+1)*runBytes])
	}
}

func (t *gasnetTransport) GetMemV(target int, offs []int64, runBytes int, dst []byte) {
	for i, off := range offs {
		t.ep.Get(target, t.all, off, dst[i*runBytes:(i+1)*runBytes])
	}
}

// PutStrided1D: GASNet has no strided API, so the runtime loops contiguous
// puts — this is exactly the "UHCAF-GASNet" behaviour in Figs 6-7.
func (t *gasnetTransport) PutStrided1D(target int, off, strideBytes int64, elemSize int, src []byte) {
	for k := 0; k*elemSize < len(src); k++ {
		t.ep.Put(target, t.all, off+int64(k)*strideBytes, src[k*elemSize:(k+1)*elemSize])
	}
}

func (t *gasnetTransport) GetStrided1D(target int, off, strideBytes int64, elemSize int, dst []byte) {
	for k := 0; k*elemSize < len(dst); k++ {
		t.ep.Get(target, t.all, off+int64(k)*strideBytes, dst[k*elemSize:(k+1)*elemSize])
	}
}

func (t *gasnetTransport) Quiet() { t.ep.WaitSyncAll() }

// --- nonblocking-RMA extension over gasnet_put_nbi/get_nbi ---

func (t *gasnetTransport) wordIdx(off int64) int {
	if off%8 != 0 {
		panic("caf: atomic on unaligned offset")
	}
	return int(off / 8)
}

func (t *gasnetTransport) PutMemNBI(target int, off int64, data []byte) {
	t.ep.PutNBI(target, t.all, off, data)
}

// PutMemVNBI: no vectored form in GASNet; one put_nbi per run. Each run
// charges one injection overhead and the transfers serialise on the NIC —
// the same arithmetic as the OpenSHMEM vectored NBI path.
func (t *gasnetTransport) PutMemVNBI(target int, offs []int64, runBytes int, src []byte) {
	for i, off := range offs {
		t.ep.PutNBI(target, t.all, off, src[i*runBytes:(i+1)*runBytes])
	}
}

// PutStrided1DNBI: no strided API either; one put_nbi per element, the
// nonblocking sibling of the blocking loop in PutStrided1D.
func (t *gasnetTransport) PutStrided1DNBI(target int, off, strideBytes int64, elemSize int, src []byte) {
	for k := 0; k*elemSize < len(src); k++ {
		t.ep.PutNBI(target, t.all, off+int64(k)*strideBytes, src[k*elemSize:(k+1)*elemSize])
	}
}

func (t *gasnetTransport) GetMemNBI(target int, off int64, dst []byte) {
	t.ep.GetNBI(target, t.all, off, dst)
}

func (t *gasnetTransport) PutSignal(target int, off int64, data []byte, sigOff int64, sigVal int64) {
	t.ep.PutSignal(target, t.all, off, data, t.all, t.wordIdx(sigOff), sigVal)
}

func (t *gasnetTransport) PutSignalNBI(target int, off int64, data []byte, sigOff int64, sigVal int64) {
	t.ep.PutSignalNBI(target, t.all, off, data, t.all, t.wordIdx(sigOff), sigVal)
}

func (t *gasnetTransport) QuietImage(target int) { t.ep.WaitSyncImage(target) }

// QuietImageStat / QuietStat: the GASNet transport has no failed-image
// machinery (faultOps is SHMEM-only), so the stat forms drain and report
// success unconditionally.
func (t *gasnetTransport) QuietImageStat(target int) error {
	t.ep.WaitSyncImage(target)
	return nil
}

func (t *gasnetTransport) QuietStat() error {
	t.ep.WaitSyncAll()
	return nil
}

func (t *gasnetTransport) amo(target, handler int, args ...int64) int64 {
	return t.ep.RequestSync(target, handler, args...)[0]
}

func (t *gasnetTransport) Swap64(target int, off int64, v int64) int64 {
	return t.amo(target, amSwap, off, v)
}

func (t *gasnetTransport) CompareSwap64(target int, off int64, expected, desired int64) int64 {
	return t.amo(target, amCSwap, off, expected, desired)
}

func (t *gasnetTransport) FetchAdd64(target int, off int64, v int64) int64 {
	return t.amo(target, amFAdd, off, v)
}

func (t *gasnetTransport) FetchAnd64(target int, off int64, v int64) int64 {
	return t.amo(target, amFAnd, off, v)
}

func (t *gasnetTransport) FetchOr64(target int, off int64, v int64) int64 {
	return t.amo(target, amFOr, off, v)
}

func (t *gasnetTransport) FetchXor64(target int, off int64, v int64) int64 {
	return t.amo(target, amFXor, off, v)
}

// GASNet exposes no shmem_ptr equivalent; direct access is never possible.
func (t *gasnetTransport) DirectWrite(int, int64, []byte) bool { return false }
func (t *gasnetTransport) DirectRead(int, int64, []byte) bool  { return false }

func (t *gasnetTransport) WaitLocal64(off int64, cmp pgas.Cmp, operand int64) {
	_, ts := t.ep.Pgas().WaitWord(off, cmp, operand)
	t.ep.Clock().MergeAtLeast(ts)
	t.ep.Clock().Advance(t.ep.World().Profile().OverheadNs)
}

func (t *gasnetTransport) Barrier() { t.ep.Barrier() }

func (t *gasnetTransport) Clock() *fabric.Clock     { return t.ep.Clock() }
func (t *gasnetTransport) Machine() *fabric.Machine { return t.ep.World().PgasWorld().Machine() }
func (t *gasnetTransport) SameNode(a, b int) bool   { return t.Machine().SameNode(a, b) }
func (t *gasnetTransport) StridedMode() fabric.StridedMode {
	return t.ep.World().Profile().Strided
}

var errBadTransport = fmt.Errorf("caf: unknown transport kind")
