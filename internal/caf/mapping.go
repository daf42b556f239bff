package caf

// FeatureMapping is one row of the paper's Table II: the correspondence
// between a CAF parallel-processing feature and the OpenSHMEM facility it is
// implemented with. Direct means a one-to-one mapping exists; the rows with
// Direct == false are the two gaps the paper contributes algorithms for
// (multi-dimensional strided transfers, §IV-C, and per-image remote locks,
// §IV-D).
type FeatureMapping struct {
	Property  string
	CAF       string
	OpenSHMEM string
	Direct    bool
	Runtime   string // how this repository implements it
}

// TableII returns the feature correspondence of the paper's Table II, each
// row annotated with the implementing runtime facility in this repository.
func TableII() []FeatureMapping {
	return []FeatureMapping{
		{"Symmetric data allocation", "allocate", "shmalloc", true, "caf.Allocate -> backend.malloc -> shmem.PE.Malloc (symmetric heap)"},
		{"Total image count", "num_images()", "_num_pes()", true, "Image.NumImages"},
		{"Current image ID", "this_image()", "_my_pe()", true, "Image.ThisImage"},
		{"Collectives - reduction", "co_sum/co_min/co_max/co_reduce", "shmem_<op>_to_all (built on 1-sided + atomics in UHCAF)", true, "caf.CoSum/CoMin/CoMax/CoReduce, in place on the caller's slice: one binomial tree over puts+flags, gather then distribution, so a result image's peers hold the result too"},
		{"Collectives - broadcast", "co_broadcast", "shmem_broadcast", true, "caf.CoBroadcast, in place: the reductions' tree, OR over the array's bytes with zeros from all but the source"},
		{"Barrier synchronisation", "sync all", "shmem_barrier_all", true, "Image.SyncAll"},
		{"Atomic swapping", "atomic_cas", "shmem_swap/shmem_cswap", true, "AtomicVar.CompareSwap/Swap"},
		{"Atomic addition", "atomic_fetch_add", "shmem_add/shmem_fadd", true, "AtomicVar.FetchAdd"},
		{"Atomic AND operation", "atomic_fetch_and", "shmem_and", true, "AtomicVar.FetchAnd"},
		{"Atomic OR operation", "atomic_or", "shmem_or", true, "AtomicVar.Or"},
		{"Atomic XOR operation", "atomic_xor", "shmem_xor", true, "AtomicVar.Xor"},
		{"Remote memory put", "x(...)[j] = v", "shmem_put/shmem_putmem", true, "Coarray.Put/PutElem -> pgas.RMA{Shape: Contig} -> shmem.PE.RMA (PutMem's entry; +quiet per §IV-B)"},
		{"Remote memory get", "v = x(...)[j]", "shmem_get/shmem_getmem", true, "Coarray.Get/GetElem -> pgas.RMA{Get: true} -> shmem.PE.RMA (GetMem's entry; quiet-before-get per §IV-B)"},
		{"1-D strided put", "x(a:b:s)[j] = v", "shmem_iput(..., stride, ...)", true, "pgas.RMA{Shape: Strided} -> shmem.PE.RMA (IPutMem's entry)"},
		{"1-D strided get", "v = x(a:b:s)[j]", "shmem_iget(..., stride, ...)", true, "pgas.RMA{Get: true, Shape: Strided} -> shmem.PE.RMA (IGetMem's entry)"},
		{"Multi-dimensional strided put", "x(a:b:s, c:d:t, ...)[j] = v", "— (no API; paper contributes 2dim_strided)", false, "Coarray.Put with StridedAlgo (naive/1dim/2dim/vendor), §IV-C"},
		{"Multi-dimensional strided get", "v = x(a:b:s, c:d:t, ...)[j]", "— (no API; paper contributes 2dim_strided)", false, "Coarray.Get with StridedAlgo, §IV-C"},
		{"Remote locks", "lock(lck[j]) / unlock(lck[j])", "— (shmem locks are global entities; paper contributes MCS adaptation)", false, "caf.Lock (MCS queue lock, packed RemoteRef, §IV-D)"},
	}
}

// TableI returns the paper's Table I: CAF implementations and their
// communication layers, extended with this repository's runtime.
func TableI() [][3]string {
	return [][3]string{
		{"UHCAF", "OpenUH", "GASNet, ARMCI, OpenSHMEM (this paper)"},
		{"CAF 2.0", "Rice", "GASNet, MPI"},
		{"Cray-CAF", "Cray", "DMAPP"},
		{"Intel-CAF", "Intel", "MPI"},
		{"GFortran-CAF", "GCC", "GASNet, MPI (OpenCoarrays)"},
		{"cafshmem (this repo)", "Go runtime library", "modelled OpenSHMEM / GASNet over a virtual fabric"},
	}
}
