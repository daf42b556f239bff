package caf_test

import (
	"hash/fnv"
	"testing"

	"cafshmem/internal/caf"
	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// The failed-image machinery must be free when no image fails: the lock is
// always the repairable one and the STAT forms always report, yet with a nil
// FaultPlan the simulation must produce virtual-time-identical results to the
// tree before fault support existed. The constants below were captured from
// that tree on the two paper workloads the feature touches most — the
// Fig-8-style lock benchmark (MCS protocol, non-symmetric qnodes, barriers)
// and a Fig-2-style contiguous put sweep (rma paths, visibility timestamps) —
// and, for the lock workload on GASNet (AM-emulated atomics) and MPI-3, from
// the tree that still had the classic two-word lock beside the repairable
// one. Any drift here means a fault path charged time or moved bytes.

const (
	goldenLockTimeNs = 49784.33333333332
	// Re-pinned: the hashed 4 KiB holds the qnodes, now 24 bytes with a prev word, self-marked when uncontended.
	goldenLockHash         = uint64(13346994205906133797)
	goldenPutTimeNs        = 3888.666666666667
	goldenPutHash          = uint64(11248824735641314085)
	goldenLockTimeGASNetNs = 63881.15610096138
	goldenLockTimeMPI3Ns   = 98145.3501181989
)

// lockWorkload is the Fig-8-style token-ring: images serialize acquiring the
// lock hosted on image 1, forced into a deterministic order by a token
// coarray. Returns each image's final virtual time and an FNV-1a hash of the
// first 4 KiB of its partition (zero where the transport is not OpenSHMEM).
func lockWorkload(t *testing.T, opts caf.Options, n int) ([]float64, []uint64) {
	t.Helper()
	times := make([]float64, n)
	sums := make([]uint64, n)
	err := caf.Run(n, opts, func(img *caf.Image) {
		lck := caf.NewLock(img)
		flag := caf.Allocate[int64](img, 1)
		nimg := img.NumImages()
		me := img.ThisImage()
		next := me%nimg + 1
		img.SyncAll()
		img.Clock().Reset()
		for r := 1; r <= 3; r++ {
			tok := int64((r-1)*nimg + me)
			if !(r == 1 && me == 1) {
				flag.WaitLocal(pgas.CmpGE, tok, 0)
			}
			lck.Acquire(1)
			lck.Release(1)
			flag.PutElem(next, tok+1, 0)
		}
		img.SyncAll()
		times[me-1] = img.Clock().Now()
		if img.SHMEM() != nil {
			h := fnv.New64a()
			h.Write(img.SHMEM().Pgas().LocalBytes(0, 4096))
			sums[me-1] = h.Sum64()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return times, sums
}

// putWorkload is the Fig-2-style sweep: image 1 puts contiguous sections of
// growing size into image 2.
func putWorkload(t *testing.T, opts caf.Options, n int) ([]float64, []uint64) {
	t.Helper()
	times := make([]float64, n)
	sums := make([]uint64, n)
	err := caf.Run(n, opts, func(img *caf.Image) {
		x := caf.Allocate[float64](img, 1024)
		img.SyncAll()
		img.Clock().Reset()
		if img.ThisImage() == 1 {
			for _, sz := range []int{1, 16, 128, 1024} {
				vals := make([]float64, sz)
				for i := range vals {
					vals[i] = float64(sz + i)
				}
				x.Put(2, caf.Section{{Lo: 0, Hi: sz - 1, Step: 1}}, vals)
			}
		}
		img.SyncAll()
		me := img.ThisImage()
		times[me-1] = img.Clock().Now()
		h := fnv.New64a()
		h.Write(img.SHMEM().Pgas().LocalBytes(0, 16384))
		sums[me-1] = h.Sum64()
	})
	if err != nil {
		t.Fatal(err)
	}
	return times, sums
}

func TestFaultSupportIsFreeWhenDisabled(t *testing.T) {
	opts := caf.UHCAFOverCraySHMEM(fabric.CrayXC30())
	times, sums := lockWorkload(t, opts, 4)
	for i, tm := range times {
		if tm != goldenLockTimeNs {
			t.Errorf("lock workload: image %d time = %v, want pre-fault-support golden %v", i+1, tm, goldenLockTimeNs)
		}
		if sums[i] != goldenLockHash {
			t.Errorf("lock workload: image %d partition hash = %d, want %d", i+1, sums[i], goldenLockHash)
		}
	}
	times, sums = putWorkload(t, opts, 2)
	for i, tm := range times {
		if tm != goldenPutTimeNs {
			t.Errorf("put workload: image %d time = %v, want pre-fault-support golden %v", i+1, tm, goldenPutTimeNs)
		}
		if sums[i] != goldenPutHash {
			t.Errorf("put workload: image %d partition hash = %d, want %d", i+1, sums[i], goldenPutHash)
		}
	}

	// A non-nil but empty plan (no kills, no link degradations) schedules
	// nothing and must also be free.
	opts.FaultPlan = &fabric.FaultPlan{Seed: 7}
	times, _ = lockWorkload(t, opts, 4)
	for i, tm := range times {
		if tm != goldenLockTimeNs {
			t.Errorf("lock workload with empty plan: image %d time = %v, want %v", i+1, tm, goldenLockTimeNs)
		}
	}

	// The same token ring on the other two transports: the repairable lock's
	// extra word and self-mark are local stores, free on every library.
	for _, tc := range []struct {
		opts caf.Options
		want float64
	}{
		{caf.UHCAFOverGASNet(fabric.CrayXC30(), fabric.ProfGASNetAries), goldenLockTimeGASNetNs},
		{caf.UHCAFOverMV2XMPI3(), goldenLockTimeMPI3Ns},
	} {
		times, _ = lockWorkload(t, tc.opts, 4)
		for i, tm := range times {
			if tm != tc.want {
				t.Errorf("lock workload on %s: image %d time = %v, want %v", tc.opts.Transport, i+1, tm, tc.want)
			}
		}
	}
}
