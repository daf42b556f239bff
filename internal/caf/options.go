package caf

import (
	"fmt"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// TransportKind selects the communication layer under the CAF runtime.
type TransportKind int

const (
	// TransportSHMEM maps the runtime onto OpenSHMEM — the paper's subject.
	TransportSHMEM TransportKind = iota
	// TransportGASNet maps the runtime onto GASNet — the original UHCAF
	// backend and the paper's main comparator.
	TransportGASNet
	// TransportMPI3 maps the runtime onto MPI-3.0 RMA (internal/mpi3): one
	// window over the whole partition opened with MPI_Win_lock_all at
	// startup, puts/gets under the shared epoch, flush_all as Quiet and
	// fence epochs under barriers — the DART-MPI mapping of a PGAS runtime
	// onto MPI one-sided communication.
	TransportMPI3
)

func (k TransportKind) String() string {
	switch k {
	case TransportGASNet:
		return "gasnet"
	case TransportMPI3:
		return "mpi3"
	default:
		return "shmem"
	}
}

// ParseTransport resolves a transport name from a CLI flag ("shmem",
// "gasnet", or "mpi3").
func ParseTransport(name string) (TransportKind, error) {
	switch name {
	case "shmem":
		return TransportSHMEM, nil
	case "gasnet":
		return TransportGASNet, nil
	case "mpi3":
		return TransportMPI3, nil
	default:
		return 0, fmt.Errorf("caf: unknown transport %q (want shmem, gasnet, or mpi3)", name)
	}
}

// StridedAlgo selects the multi-dimensional strided transfer strategy (§IV-C).
type StridedAlgo int

const (
	// StridedNaive issues one contiguous put/get per maximal contiguous run —
	// degenerating to one call per element when the innermost dimension is
	// strided. This is the paper's baseline, and (per §V-D) the best choice
	// for matrix-oriented sections whose innermost dimension is contiguous.
	StridedNaive StridedAlgo = iota
	// StridedOneDim always drives the library's 1-D strided call along the
	// first (innermost, Fortran-contiguous) dimension.
	StridedOneDim
	// Strided2Dim is the paper's 2dim_strided algorithm: choose the base
	// dimension with more strided elements among the *first two* dimensions
	// (the call-count vs data-locality trade-off of §IV-C) and issue one 1-D
	// strided call per pencil along it.
	Strided2Dim
	// StridedVendor models Cray CAF's in-compiler strided path: hardware
	// strided transfers along dimension one with the vendor runtime's higher
	// per-element cost, no base-dimension optimisation.
	StridedVendor
	// StridedBestDim is an extension beyond the paper: pick the base
	// dimension with the most strided elements among *all* dimensions,
	// ignoring the §IV-C locality trade-off. The ablation benchmark uses it
	// to quantify why the paper restricts the choice to the first two
	// dimensions (outer dimensions have large memory strides, so walking
	// them defeats the cache) — the future-work direction of §VII.
	StridedBestDim
)

func (a StridedAlgo) String() string {
	switch a {
	case StridedOneDim:
		return "1dim"
	case Strided2Dim:
		return "2dim"
	case StridedVendor:
		return "vendor"
	case StridedBestDim:
		return "bestdim"
	default:
		return "naive"
	}
}

// LockAlgo selects the coarray lock implementation (§IV-D).
type LockAlgo int

const (
	// LockMCS is the paper's adaptation of the Mellor-Crummey/Scott queue
	// lock: local spinning, packed 64-bit remote qnode pointers, remote
	// fetch-and-store enqueue and compare-and-swap release.
	LockMCS LockAlgo = iota
	// LockVendor models Cray CAF's lock path: the same queueing discipline
	// but with an extra remote state probe on acquire and release
	// (calibrated to the paper's ~22% gap).
	LockVendor
	// LockNaiveSpin spins remotely on the lock word with compare-and-swap —
	// the "spinning on non-local memory locations" anti-pattern MCS avoids.
	// Kept for the ablation benchmark.
	LockNaiveSpin
	// LockGlobalArray is the strawman §IV-D rejects: emulate lock(lck[j])
	// with an N-element array of OpenSHMEM global locks, one per image.
	// Kept for the ablation benchmark.
	LockGlobalArray
)

func (a LockAlgo) String() string {
	switch a {
	case LockVendor:
		return "vendor"
	case LockNaiveSpin:
		return "naive-spin"
	case LockGlobalArray:
		return "global-array"
	default:
		return "mcs"
	}
}

// Options configures a CAF execution.
type Options struct {
	// Machine is the modelled platform (required).
	Machine *fabric.Machine
	// Transport picks the communication layer; Profile names the library
	// cost profile on Machine (required).
	Transport TransportKind
	Profile   string
	// Strided picks the multi-dimensional strided transfer algorithm.
	Strided StridedAlgo
	// Locks picks the coarray lock algorithm.
	Locks LockAlgo
	// DeferredQuiet disables the conservative quiet-after-every-put rule of
	// §IV-B and defers completion to synchronisation points. Programs relying
	// on CAF's same-location ordering may observe weaker semantics; the
	// ablation benchmark quantifies what the conservative rule costs.
	DeferredQuiet bool
	// NonSymBytes sizes the pre-allocated buffer for non-symmetric
	// remotely-accessible data (qnodes, derived-type components) — §IV-A/D.
	// Defaults to 1 MiB.
	NonSymBytes int64
	// ActivePairsPerNode overrides the contention model's estimate of
	// concurrently-communicating PEs per node (the microbenchmarks' "1 pair"
	// vs "16 pairs" configurations). Zero derives it from placement.
	ActivePairsPerNode int
	// Tracer, when non-nil, records every communication operation the
	// runtime issues (virtual-time spans) for post-mortem analysis; see
	// caf.Tracer.
	Tracer *Tracer
	// IntraNodeDirect implements the paper's §VII future work: "utilize the
	// shmem_ptr operation to convert intra-node accesses into direct
	// load/store instructions". When set, contiguous co-indexed accesses to
	// images on the same node bypass the communication library and cost only
	// the memory copy. Only effective on the OpenSHMEM transport
	// (Caps.Direct: shmem_ptr has no GASNet or MPI-3 equivalent here).
	IntraNodeDirect bool
	// Sanitize enables the OpenSHMEM layer's runtime sanitizer underneath
	// the CAF runtime: races between gets and un-quieted puts (which
	// DeferredQuiet makes possible), symmetric-heap leaks at job end, and
	// collective call-sequence divergence are reported as an error from Run.
	// Requires the OpenSHMEM transport; off by default and free when off.
	Sanitize bool
	// FaultPlan schedules deterministic fault injection (see fabric.FaultPlan
	// and fail.go): images die at planned virtual times as if they executed
	// FAIL IMAGE, and links may degrade. A non-empty plan implies
	// FaultTolerant. Requires the OpenSHMEM transport; nil (the default)
	// leaves every virtual time and byte identical to a build without fault
	// support.
	FaultPlan *fabric.FaultPlan
	// FaultTolerant switches the runtime's failed-image machinery on without
	// scheduling any faults: the MCS lock uses repairable 3-word qnodes and
	// the STAT-bearing APIs detect real FAIL IMAGE calls. Implied by a
	// non-empty FaultPlan. Requires the OpenSHMEM transport.
	FaultTolerant bool
	// Options is the pgas world's host-side tuning: the world barrier's shard
	// layout (BarrierShards). Virtual times, forensics, and fault replays are
	// bit-identical across layouts.
	pgas.Options
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Machine == nil {
		return out, fmt.Errorf("caf: options need a machine model")
	}
	if out.Profile == "" {
		return out, fmt.Errorf("caf: options need a library profile name")
	}
	if _, err := out.Machine.Profile(out.Profile); err != nil {
		return out, err
	}
	if out.NonSymBytes <= 0 {
		out.NonSymBytes = 1 << 20
	}
	caps := out.Transport.Caps()
	if out.Sanitize && !caps.Sanitizer {
		return out, fmt.Errorf("caf: Sanitize requires the OpenSHMEM transport")
	}
	if !out.FaultPlan.Empty() {
		out.FaultTolerant = true
	}
	if (out.FaultTolerant || out.FaultPlan != nil) && !caps.FaultStat {
		return out, fmt.Errorf("caf: fault injection and fault tolerance require the OpenSHMEM transport")
	}
	return out, nil
}

// The named configurations the paper evaluates.

// UHCAFOverCraySHMEM is UHCAF retargeted to Cray SHMEM (XC30/Titan),
// with the 2dim_strided algorithm and MCS locks — the paper's headline
// configuration.
func UHCAFOverCraySHMEM(m *fabric.Machine) Options {
	return Options{Machine: m, Transport: TransportSHMEM, Profile: fabric.ProfCraySHMEM,
		Strided: Strided2Dim, Locks: LockMCS}
}

// UHCAFOverMV2XSHMEM is UHCAF over MVAPICH2-X SHMEM (Stampede).
func UHCAFOverMV2XSHMEM() Options {
	return Options{Machine: fabric.Stampede(), Transport: TransportSHMEM,
		Profile: fabric.ProfMV2XSHMEM, Strided: Strided2Dim, Locks: LockMCS}
}

// UHCAFOverGASNet is the original UHCAF configuration over the machine's
// GASNet conduit (profile must be one of the GASNet profiles).
func UHCAFOverGASNet(m *fabric.Machine, profile string) Options {
	return Options{Machine: m, Transport: TransportGASNet, Profile: profile,
		Strided: StridedNaive, Locks: LockMCS}
}

// UHCAFOverMV2XMPI3 is UHCAF retargeted to MPI-3.0 RMA over MVAPICH2-X
// (Stampede) — the third transport of the paper's comparison (§III measures
// the MPI-3 one-sided latencies the profile models). MPI has no native
// strided RMA fast path in this mapping, so sections decompose naively like
// the GASNet backend.
func UHCAFOverMV2XMPI3() Options {
	return Options{Machine: fabric.Stampede(), Transport: TransportMPI3,
		Profile: fabric.ProfMV2XMPI3, Strided: StridedNaive, Locks: LockMCS}
}

// CrayCAF models the Cray Fortran compiler's own CAF implementation over
// DMAPP (Table I), with vendor strided transfers and vendor locks.
func CrayCAF(m *fabric.Machine) Options {
	return Options{Machine: m, Transport: TransportSHMEM, Profile: fabric.ProfCrayDMAPP,
		Strided: StridedVendor, Locks: LockVendor}
}
