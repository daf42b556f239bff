package fabric

import (
	"testing"
	"testing/quick"
)

func TestMachineCatalog(t *testing.T) {
	for _, m := range []*Machine{Stampede(), CrayXC30(), Titan()} {
		if m.CoresPerNode != 16 {
			t.Errorf("%s: CoresPerNode = %d, want 16 (paper Table III)", m.Name, m.CoresPerNode)
		}
		if len(m.ProfileNames()) == 0 {
			t.Errorf("%s: no library profiles", m.Name)
		}
	}
}

func TestPaperTableIIIShapes(t *testing.T) {
	// Paper Table III: Stampede 6,400 nodes IB; XC30 64 nodes Aries;
	// Titan 18,688 nodes Gemini.
	if s := Stampede(); s.Nodes != 6400 || s.Interconnect == "" {
		t.Errorf("Stampede config wrong: %+v", s)
	}
	if x := CrayXC30(); x.Nodes != 64 {
		t.Errorf("XC30 nodes = %d, want 64", x.Nodes)
	}
	if ti := Titan(); ti.Nodes != 18688 {
		t.Errorf("Titan nodes = %d, want 18688", ti.Nodes)
	}
}

func TestProfileLookup(t *testing.T) {
	m := Stampede()
	if _, err := m.Profile(ProfMV2XSHMEM); err != nil {
		t.Fatalf("expected profile: %v", err)
	}
	if _, err := m.Profile("no-such-library"); err == nil {
		t.Fatal("lookup of unknown profile should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustProfile should panic on unknown profile")
		}
	}()
	m.MustProfile("no-such-library")
}

func TestBlockPlacement(t *testing.T) {
	m := Stampede() // 16 cores/node
	if m.NodeOf(0) != 0 || m.NodeOf(15) != 0 {
		t.Fatal("first 16 ranks should be on node 0")
	}
	if m.NodeOf(16) != 1 {
		t.Fatal("rank 16 should be on node 1")
	}
	if !m.SameNode(3, 7) {
		t.Fatal("ranks 3 and 7 share a node")
	}
	if m.SameNode(15, 16) {
		t.Fatal("ranks 15 and 16 are on different nodes")
	}
}

// TestNodeRangeMatchesSameNode: t lies in NodeRange(pe) exactly when it is
// co-located with pe.
func TestNodeRangeMatchesSameNode(t *testing.T) {
	for _, per := range []int{0, 1, 3, 16} {
		m := Machine{CoresPerNode: per}
		for pe := 0; pe < 40; pe++ {
			lo, hi := m.NodeRange(pe)
			for q := 0; q < 40; q++ {
				if in := lo <= q && q < hi; in != m.SameNode(pe, q) {
					t.Fatalf("cores/node %d: NodeRange(%d) = [%d,%d) but SameNode(%d,%d) = %v", per, pe, lo, hi, pe, q, !in)
				}
			}
		}
	}
}

func TestNodesFor(t *testing.T) {
	m := Titan()
	cases := map[int]int{1: 1, 16: 1, 17: 2, 1024: 64, 2048: 128}
	for n, want := range cases {
		if got := m.NodesFor(n); got != want {
			t.Errorf("NodesFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// Calibration invariants straight from the paper's narrative.
func TestCalibrationOrderings(t *testing.T) {
	st := Stampede()
	shm := st.MustProfile(ProfMV2XSHMEM)
	mpi := st.MustProfile(ProfMV2XMPI3)
	gas := st.MustProfile(ProfGASNetIBV)

	// §III: "the latency of both GASNet and OpenSHMEM is less than the tested
	// MPI-3.0 implementations when there is no contention".
	for _, n := range []int{8, 64, 1024} {
		lshm := shm.PutInjectNs(n, false, 1) + shm.DeliveryNs(false, 1)
		lgas := gas.PutInjectNs(n, false, 1) + gas.DeliveryNs(false, 1)
		lmpi := mpi.PutInjectNs(n, false, 1) + mpi.DeliveryNs(false, 1) + mpi.WindowSyncNs
		if lshm >= lmpi || lgas >= lmpi {
			t.Errorf("size %d: MPI-3 latency should be worst (shm=%v gas=%v mpi=%v)", n, lshm, lgas, lmpi)
		}
	}
	// §III: "For large message sizes OpenSHMEM performs better than GASNet."
	if shm.GapNsPerByte >= gas.GapNsPerByte {
		t.Error("MV2X SHMEM should sustain more bandwidth than GASNet-ibv")
	}
	// §V-B2: MV2X iput is a loop of putmem.
	if shm.Strided != StridedLoop {
		t.Error("MV2X SHMEM iput must be modelled as a loop of putmem")
	}

	xc := CrayXC30()
	cshm := xc.MustProfile(ProfCraySHMEM)
	cgas := xc.MustProfile(ProfGASNetAries)
	// §III: "Cray SHMEM performs better than GASNet on Titan" (small msgs).
	if cshm.LatencyNs >= cgas.LatencyNs {
		t.Error("Cray SHMEM latency should beat GASNet on Aries")
	}
	// §V-B2: Cray SHMEM iput is DMAPP-optimised.
	if cshm.Strided != StridedHardware {
		t.Error("Cray SHMEM iput must be hardware strided")
	}
	// Cray CAF's runtime (DMAPP profile) charges more per strided element
	// than UHCAF-over-Cray-SHMEM — the source of the Fig 6 3x gap.
	dm := xc.MustProfile(ProfCrayDMAPP)
	if dm.StridedPerElemNs <= cshm.StridedPerElemNs {
		t.Error("Cray CAF strided per-element cost should exceed Cray SHMEM's")
	}
	// GASNet atomics are AM-emulated everywhere (lock result driver, Fig 8).
	for _, p := range []*CostProfile{gas, cgas, Titan().MustProfile(ProfGASNetGemini)} {
		if p.Atomics != AtomicsAM {
			t.Errorf("%s: GASNet atomics must be AM-emulated", p.Name)
		}
	}
}

// Property: block placement is consistent — SameNode(a,b) iff NodeOf agree,
// and every node hosts at most CoresPerNode consecutive ranks.
func TestPlacementProperty(t *testing.T) {
	m := CrayXC30()
	f := func(a, b uint16) bool {
		pa, pb := int(a)%2048, int(b)%2048
		if m.SameNode(pa, pb) != (m.NodeOf(pa) == m.NodeOf(pb)) {
			return false
		}
		return m.NodeOf(pa) == pa/16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeNs(t *testing.T) {
	m := Stampede() // 2.0 GFLOPS/core
	if got := m.ComputeNs(2e9); got != 1e9 {
		t.Fatalf("2 GFLOP at 2 GFLOPS = %v ns, want 1e9", got)
	}
	var zero Machine // unset rate falls back to 1 GFLOPS
	if got := zero.ComputeNs(5); got != 5 {
		t.Fatalf("fallback rate wrong: %v", got)
	}
}
