package fabric

import (
	"fmt"
	"math"
	"sort"
)

// Machine describes one experimental platform (paper Table III) plus the set
// of communication-library cost profiles calibrated for it.
type Machine struct {
	Name         string
	Nodes        int
	CoresPerNode int
	Interconnect string
	// CoreGFLOPS is the sustained per-core floating-point rate used by the
	// application benchmarks' compute-time model (memory-bound stencil codes
	// sustain a fraction of peak).
	CoreGFLOPS float64
	profiles   map[string]*CostProfile
}

// ComputeNs returns the modelled wall time of `flops` floating-point
// operations on one core.
func (m *Machine) ComputeNs(flops float64) float64 {
	g := m.CoreGFLOPS
	if g <= 0 {
		g = 1
	}
	return flops / g
}

// Profile returns the named library cost profile for this machine, or an
// error listing what is available.
func (m *Machine) Profile(name string) (*CostProfile, error) {
	p, ok := m.profiles[name]
	if !ok {
		return nil, fmt.Errorf("fabric: machine %s has no profile %q (have %v)", m.Name, name, m.ProfileNames())
	}
	return p, nil
}

// MustProfile is Profile but panics on unknown names; used by harness setup
// code where the name set is static.
func (m *Machine) MustProfile(name string) *CostProfile {
	p, err := m.Profile(name)
	if err != nil {
		panic(err)
	}
	return p
}

// AddProfile registers (or replaces) a library cost profile under p.Name and
// tables its contention-share term for this machine's node size. It is how
// the machine builders below — the source of the calibrated defaults —
// register theirs, and the hook harnesses use to run a machine with a derived
// profile (e.g. a clone with a nonzero WindowSyncNs to isolate that
// surcharge).
func (m *Machine) AddProfile(p *CostProfile) {
	if p == nil || p.Name == "" {
		panic("fabric: AddProfile needs a named profile")
	}
	if m.profiles == nil {
		m.profiles = map[string]*CostProfile{}
	}
	p.tabulate(m.CoresPerNode)
	m.profiles[p.Name] = p
}

// ProfileNames lists the library profiles configured for the machine.
func (m *Machine) ProfileNames() []string {
	names := make([]string, 0, len(m.profiles))
	for n := range m.profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NodeOf maps a PE rank to its node under block placement (ranks fill a node
// before spilling to the next), matching how the paper's jobs were launched
// (16 cores per node on all three systems).
func (m *Machine) NodeOf(pe int) int {
	if m.CoresPerNode <= 0 {
		return 0
	}
	return pe / m.CoresPerNode
}

// NodeRange returns the ranks [lo, hi) placed on pe's node (hi is not clipped
// to a job size): t is co-located with pe exactly when lo <= t < hi, which
// lets a PE answer SameNode for every target without a division.
func (m *Machine) NodeRange(pe int) (lo, hi int) {
	if m.CoresPerNode <= 0 {
		return 0, math.MaxInt
	}
	lo = pe / m.CoresPerNode * m.CoresPerNode
	return lo, lo + m.CoresPerNode
}

// SameNode reports whether two PEs are co-located on one node.
func (m *Machine) SameNode(a, b int) bool { return m.NodeOf(a) == m.NodeOf(b) }

// NodesFor returns the number of nodes spanned by n block-placed PEs.
func (m *Machine) NodesFor(n int) int {
	if m.CoresPerNode <= 0 || n <= 0 {
		return 1
	}
	return (n + m.CoresPerNode - 1) / m.CoresPerNode
}

// Library profile names used across the repository. The benchmark harnesses
// and the caf.Transport constructors look profiles up by these names.
const (
	ProfMV2XSHMEM    = "MVAPICH2-X-SHMEM" // Stampede: OpenSHMEM over IB verbs
	ProfMV2XMPI3     = "MVAPICH2-X-MPI3"  // Stampede: MPI-3.0 RMA
	ProfGASNetIBV    = "GASNet-ibv"       // Stampede: GASNet IBV conduit
	ProfCraySHMEM    = "Cray-SHMEM"       // XC30/Titan: SHMEM over DMAPP
	ProfCrayMPICH    = "Cray-MPICH"       // XC30/Titan: Cray MPI
	ProfGASNetAries  = "GASNet-aries"     // XC30: GASNet Aries conduit
	ProfGASNetGemini = "GASNet-gemini"    // Titan: GASNet Gemini conduit
	ProfCrayDMAPP    = "Cray-DMAPP"       // XC30/Titan: Cray CAF's native layer
)

// Stampede builds the TACC Stampede model: 6,400 nodes, dual-socket Sandy
// Bridge (16 cores/node used), Mellanox FDR InfiniBand (paper Table III).
//
// Calibration targets (paper §III, Figs 2–3, Stampede column):
//   - small-message put latency: SHMEM ≈ GASNet < MPI-3.0 at 1 pair;
//   - large-message put: SHMEM < GASNet (SHMEM keeps more bandwidth);
//   - 16 pairs: SHMEM clearly ahead of both;
//   - MV2X iput is a loop of putmem (§V-B2), atomics are native IB atomics.
func Stampede() *Machine {
	m := &Machine{
		Name:         "Stampede",
		CoreGFLOPS:   2.0,
		Nodes:        6400,
		CoresPerNode: 16,
		Interconnect: "InfiniBand FDR (Mellanox)",
		profiles:     map[string]*CostProfile{},
	}
	m.AddProfile(&CostProfile{
		Name:       ProfMV2XSHMEM,
		OverheadNs: 180, LatencyNs: 1250, GapNsPerByte: 1.0 / 6.0, // ~6 GB/s
		IntraLatencyNs: 250, IntraGapNsPerByte: 1.0 / 11.0,
		AtomicNs: 650, Atomics: AtomicsNative,
		Strided:             StridedLoop, // iput == loop of putmem on MVAPICH2-X
		ContentionLatencyNs: 55, ContentionShareExp: 1.0,
		MemGapNsPerByte: 0.15,
	})
	m.AddProfile(&CostProfile{
		Name:       ProfMV2XMPI3,
		OverheadNs: 420, LatencyNs: 1700, GapNsPerByte: 1.0 / 5.4,
		IntraLatencyNs: 420, IntraGapNsPerByte: 1.0 / 10.0,
		AtomicNs: 900, Atomics: AtomicsNative,
		Strided:             StridedLoop,
		ContentionLatencyNs: 105, ContentionShareExp: 1.12,
		WindowSyncNs: 260, MemGapNsPerByte: 0.15, // passive-target lock/flush bookkeeping per op
	})
	m.AddProfile(&CostProfile{
		Name:       ProfGASNetIBV,
		OverheadNs: 210, LatencyNs: 1290, GapNsPerByte: 1.0 / 5.45, // lower peak BW
		IntraLatencyNs: 300, IntraGapNsPerByte: 1.0 / 10.0,
		AtomicNs: 650, Atomics: AtomicsAM, AMHandlerNs: 900,
		Strided:             StridedLoop, // GASNet has no strided API; runtime loops puts
		ContentionLatencyNs: 90, ContentionShareExp: 1.08,
		MemGapNsPerByte: 0.15,
	})
	return m
}

// CrayXC30 builds the Cray XC30 model: 64 nodes, Sandy Bridge 16 cores/node,
// Aries Dragonfly interconnect (paper Table III).
//
// Calibration targets (paper Figs 2(c,d), 3(c,d), 6): Cray SHMEM beats GASNet
// at small sizes and keeps a bandwidth edge at large sizes; shmem_iput is
// DMAPP-optimised hardware strided (the premise of the 2dim_strided win).
func CrayXC30() *Machine {
	m := &Machine{
		Name:         "Cray-XC30",
		CoreGFLOPS:   2.0,
		Nodes:        64,
		CoresPerNode: 16,
		Interconnect: "Aries Dragonfly",
		profiles:     map[string]*CostProfile{},
	}
	m.AddProfile(craySHMEMProfile())
	m.AddProfile(crayMPICHProfile())
	m.AddProfile(&CostProfile{
		Name:       ProfGASNetAries,
		OverheadNs: 240, LatencyNs: 1000, GapNsPerByte: 1.0 / 6.05,
		IntraLatencyNs: 300, IntraGapNsPerByte: 1.0 / 10.0,
		AtomicNs: 520, Atomics: AtomicsAM, AMHandlerNs: 850,
		Strided:             StridedLoop,
		ContentionLatencyNs: 70, ContentionShareExp: 1.05,
		MemGapNsPerByte: 0.14,
	})
	m.AddProfile(crayDMAPPProfile())
	return m
}

// Titan builds the OLCF Titan model: 18,688 nodes, AMD Opteron 16 cores/node,
// Gemini interconnect (paper Table III). Gemini has somewhat higher latency
// than Aries but the same qualitative ordering.
func Titan() *Machine {
	m := &Machine{
		Name:         "Titan",
		CoreGFLOPS:   1.4,
		Nodes:        18688,
		CoresPerNode: 16,
		Interconnect: "Cray Gemini",
		profiles:     map[string]*CostProfile{},
	}
	shm := craySHMEMProfile()
	shm.LatencyNs = 1450
	shm.GapNsPerByte = 1.0 / 5.8
	m.AddProfile(shm)

	mpich := crayMPICHProfile()
	mpich.LatencyNs = 1900
	mpich.GapNsPerByte = 1.0 / 5.2
	m.AddProfile(mpich)

	m.AddProfile(&CostProfile{
		Name:       ProfGASNetGemini,
		OverheadNs: 260, LatencyNs: 1480, GapNsPerByte: 1.0 / 5.35,
		IntraLatencyNs: 320, IntraGapNsPerByte: 1.0 / 9.0,
		AtomicNs: 450, Atomics: AtomicsAM, AMHandlerNs: 350,
		Strided:             StridedLoop,
		ContentionLatencyNs: 55, ContentionShareExp: 1.06,
		MemGapNsPerByte: 0.16,
	})
	dm := crayDMAPPProfile()
	dm.LatencyNs = 1500
	dm.GapNsPerByte = 1.0 / 5.6
	m.AddProfile(dm)
	return m
}

func craySHMEMProfile() *CostProfile {
	return &CostProfile{
		Name:       ProfCraySHMEM,
		OverheadNs: 150, LatencyNs: 900, GapNsPerByte: 1.0 / 6.5,
		IntraLatencyNs: 220, IntraGapNsPerByte: 1.0 / 12.0,
		AtomicNs: 420, Atomics: AtomicsNative,
		Strided: StridedHardware, StridedPerElemNs: 12,
		ContentionLatencyNs: 45, ContentionShareExp: 1.0,
		MemGapNsPerByte: 0.14,
	}
}

func crayMPICHProfile() *CostProfile {
	return &CostProfile{
		Name:       ProfCrayMPICH,
		OverheadNs: 380, LatencyNs: 1600, GapNsPerByte: 1.0 / 5.6,
		IntraLatencyNs: 400, IntraGapNsPerByte: 1.0 / 10.0,
		AtomicNs: 750, Atomics: AtomicsNative,
		Strided:             StridedLoop,
		ContentionLatencyNs: 95, ContentionShareExp: 1.1,
		WindowSyncNs: 240, MemGapNsPerByte: 0.14,
	}
}

// crayDMAPPProfile models the layer Cray Fortran's own CAF runtime sits on.
// It shares the NIC characteristics of Cray SHMEM (both ride DMAPP) but the
// Cray CAF runtime charges more software overhead per injected operation and
// per strided element, which is where the paper's measured gaps against
// UHCAF-over-Cray-SHMEM come from (Fig 6, Fig 8, Fig 9).
func crayDMAPPProfile() *CostProfile {
	return &CostProfile{
		Name:       ProfCrayDMAPP,
		OverheadNs: 290, LatencyNs: 900, GapNsPerByte: 1.0 / 6.0,
		IntraLatencyNs: 240, IntraGapNsPerByte: 1.0 / 11.0,
		AtomicNs: 520, Atomics: AtomicsNative,
		Strided: StridedHardware, StridedPerElemNs: 55,
		ContentionLatencyNs: 50, ContentionShareExp: 1.0,
		MemGapNsPerByte: 0.14,
	}
}
