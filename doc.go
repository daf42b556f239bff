// Package cafshmem reproduces "OpenSHMEM as a Portable Communication Layer
// for PGAS Models: A Case Study with Coarray Fortran" (Namashivayam,
// Eachempati, Khaldi, Chapman — IEEE CLUSTER 2015) as a Go library.
//
// The layering mirrors the paper's stack:
//
//	internal/fabric    — virtual-time interconnect model (Stampede, Cray
//	                     XC30, Titan; per-library LogGP-style cost profiles)
//	internal/pgas      — execution substrate: goroutine PEs, partitioned
//	                     memory, one-sided access, causal timestamps
//	internal/shmem     — the OpenSHMEM library (symmetric heap, put/get,
//	                     iput/iget, atomics, collectives, locks, wait-until)
//	internal/gasnet    — GASNet comparator (active messages + extended API)
//	internal/mpi3      — MPI-3 RMA comparator (windows, passive target)
//	internal/caf       — the CAF runtime over a pluggable Transport: the
//	                     paper's contribution (coarrays, 2dim_strided,
//	                     MCS locks with packed remote pointers, sync,
//	                     atomics, collectives, events)
//	internal/pgasbench — the PGAS Microbenchmark suite (Figures 2,3,6,7,8)
//	internal/dht       — distributed hash table benchmark (Figure 9)
//	internal/himeno    — CAF Himeno benchmark (Figure 10)
//
// cmd/reproduce regenerates every figure of the paper's evaluation and holds
// it to the claims table (internal/pgasbench); benchmark/ measures what that
// costs the host. See DESIGN.md for the per-experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package cafshmem
