// Package dht implements the distributed hash table benchmark of the paper's
// §V-C (after Maynard, "Comparing One-Sided Communication With MPI, UPC and
// SHMEM" [21]): a table distributed across all images, where each image
// randomly updates entries, using coarray locks to make each update atomic.
//
// The benchmark exists to exercise the CAF lock implementation (§IV-D) under
// application-like traffic: every update is lock -> get -> modify -> put ->
// unlock against a usually-remote image.
package dht

import (
	"fmt"
	"sync/atomic"

	"cafshmem/internal/caf"
)

// Table is a distributed hash table of int64 counters with per-image lock
// protection.
type Table struct {
	img     *caf.Image
	keys    *caf.Coarray[int64]
	vals    *caf.Coarray[int64]
	used    *caf.Coarray[int64]
	lock    *caf.Lock
	buckets int
}

// New collectively creates a table with bucketsPerImage buckets hosted on
// each image.
func New(img *caf.Image, bucketsPerImage int) *Table {
	if bucketsPerImage <= 0 {
		panic("dht: need at least one bucket per image")
	}
	t := &Table{
		img:     img,
		keys:    caf.Allocate[int64](img, bucketsPerImage),
		vals:    caf.Allocate[int64](img, bucketsPerImage),
		used:    caf.Allocate[int64](img, bucketsPerImage),
		lock:    caf.NewLock(img),
		buckets: bucketsPerImage,
	}
	// Stat form so a table can still be built by the survivors when an image
	// has already failed; identical to SyncAll when no image has.
	img.SyncAllStat()
	return t
}

// home maps a key to its owning image (1-based) and local bucket index.
func (t *Table) home(key uint64) (image, slot int) {
	h := splitmix64(key)
	n := uint64(t.img.NumImages())
	image = int(h%n) + 1
	slot = int((h / n) % uint64(t.buckets))
	return image, slot
}

// Update atomically adds delta to the value stored under key, inserting the
// key on first touch. The entire read-modify-write runs under the owning
// image's coarray lock, exactly as in the paper's benchmark. Linear probing
// resolves collisions within the owning image.
func (t *Table) Update(key uint64, delta int64) error {
	image, slot := t.home(key)
	t.lock.Acquire(image)
	defer t.lock.Release(image)
	for probe := 0; probe < t.buckets; probe++ {
		if t.probe(image, (slot+probe)%t.buckets, key, delta) {
			return nil
		}
	}
	return fmt.Errorf("dht: image %d full while inserting key %d", image, key)
}

// probe is one linear-probing step of an update, run under the owning
// image's lock: it inserts key at bucket s when the bucket is free, adds delta
// when it already holds key, and reports whether either applied. Every access
// is a single-element get or put — the runtime's 8-byte word path.
func (t *Table) probe(image, s int, key uint64, delta int64) bool {
	if t.used.GetElem(image, s) == 0 {
		t.keys.PutElem(image, int64(key), s)
		t.vals.PutElem(image, delta, s)
		t.used.PutElem(image, 1, s)
		return true
	}
	if t.keys.GetElem(image, s) == int64(key) {
		t.vals.PutElem(image, t.vals.GetElem(image, s)+delta, s)
		return true
	}
	return false
}

// UpdateStat is Update with Fortran 2018 failed-image semantics: when the
// owning image has failed (before or while holding its lock), the update is
// abandoned and the condition is reported as the returned Stat instead of
// error termination. A StatOK return means the update was applied; a failed
// previous lock holder is recovered from transparently by the runtime's lock
// repair, which still yields StatOK here.
func (t *Table) UpdateStat(key uint64, delta int64) (caf.Stat, error) {
	image, slot := t.home(key)
	stat := t.lock.AcquireStat(image)
	if stat != caf.StatOK {
		return stat, nil
	}
	defer t.lock.ReleaseStat(image)
	for probe := 0; probe < t.buckets; probe++ {
		if t.probe(image, (slot+probe)%t.buckets, key, delta) {
			return caf.StatOK, nil
		}
	}
	return caf.StatOK, fmt.Errorf("dht: image %d full while inserting key %d", image, key)
}

// Lock exposes the table's coarray lock, so fault-injection tests and the
// worked fail-image example can die while holding it.
func (t *Table) Lock() *caf.Lock { return t.lock }

// Lookup returns the value stored under key (0 if absent) without locking —
// the benchmark only measures updates; lookups are for verification.
func (t *Table) Lookup(key uint64) int64 {
	image, slot := t.home(key)
	for probe := 0; probe < t.buckets; probe++ {
		s := (slot + probe) % t.buckets
		if t.used.GetElem(image, s) == 0 {
			return 0
		}
		if t.keys.GetElem(image, s) == int64(key) {
			return t.vals.GetElem(image, s)
		}
	}
	return 0
}

// LocalSum returns the sum of values hosted on this image (verification). It
// reads the buckets a chunk at a time, one ranged read of used and one of
// vals per chunk into buffers on its stack, so it allocates nothing.
func (t *Table) LocalSum() int64 {
	var used, vals [64]int64
	var sum int64
	for lo := 0; lo < t.buckets; lo += len(used) {
		n := min(len(used), t.buckets-lo)
		t.used.SliceRangeInto(lo, used[:n])
		t.vals.SliceRangeInto(lo, vals[:n])
		for i, u := range used[:n] {
			if u != 0 {
				sum += vals[i]
			}
		}
	}
	return sum
}

// splitmix64 is the standard avalanche mix used to spread keys.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BenchResult is the outcome of one benchmark execution.
type BenchResult struct {
	Images    int
	Updates   int // per image
	TimeMs    float64
	UpdatesPS float64 // aggregate updates per (virtual) second
	// CommOps is the job-wide total of runtime-issued communication
	// operations (caf.Stats.Ops summed over all images) — the simulated-op
	// denominator for the wall-clock scaling benchmarks.
	CommOps int64
	// Pages is the job's partition-memory record, captured by image 1 after
	// the final synchronisation: pages materialised, how much was new memory.
	Pages caf.PageStats
	// Metrics is the job's host-side synchronisation record, captured with
	// Pages: goroutine sleeps and runners started (host dependent) and
	// rendezvous.
	Metrics caf.Metrics
}

// UpdateAt atomically adds delta to the bucket at (image, slot) directly,
// bypassing the hash. Used by collision-free benchmark patterns and tests.
func (t *Table) UpdateAt(image, slot int, delta int64) {
	t.lock.Acquire(image)
	defer t.lock.Release(image)
	t.vals.PutElem(image, t.vals.GetElem(image, slot)+delta, slot)
	t.used.PutElem(image, 1, slot)
}

// UpdateBatchAt applies several direct (hash-bypassing) updates against one
// owning image under a single lock acquisition, pipelining the writes through
// the nonblocking path: reads happen first (blocking gets quiet the put
// stream, so they must precede the async puts), then every modified bucket is
// written with PutAsync, and one SyncMemoryImage(image) completes the whole
// batch — the per-destination quiet: the batch pays the owning image's
// completion horizon only, never waiting for unrelated in-flight transfers
// toward other images. With the lock held throughout, atomicity matches
// len(slots) UpdateAt calls; the modelled cost replaces per-update wire
// round-trips with max-of-transfers plus one per-target quiet.
func (t *Table) UpdateBatchAt(image int, slots []int, deltas []int64) {
	if len(slots) != len(deltas) {
		panic(fmt.Sprintf("dht: batch of %d slots with %d deltas", len(slots), len(deltas)))
	}
	if len(slots) == 0 {
		return
	}
	// Accumulate per-slot sums so a slot repeated within the batch becomes a
	// single read-modify-write (async puts to the same location carry no
	// same-image ordering guarantee before SyncMemory).
	order := make([]int, 0, len(slots))
	acc := make(map[int]int64, len(slots))
	for i, s := range slots {
		if _, seen := acc[s]; !seen {
			order = append(order, s)
		}
		acc[s] += deltas[i]
	}

	t.lock.Acquire(image)
	defer t.lock.Release(image)
	newVals := make([]int64, len(order))
	for i, s := range order {
		newVals[i] = t.vals.GetElem(image, s) + acc[s]
	}
	for i, s := range order {
		t.vals.PutAsync(image, caf.Idx(s), newVals[i:i+1])
		t.used.PutAsync(image, caf.Idx(s), []int64{1})
	}
	t.img.SyncMemoryImage(image)
}

// Bench runs the paper's measurement: every image performs updates random
// updates against the table, then all images synchronise; the reported time
// is the (virtual) completion time of the slowest image. The key stream is
// seeded per image, deterministically.
func Bench(opts caf.Options, images, bucketsPerImage, updates int) (BenchResult, error) {
	return BenchPattern(opts, images, bucketsPerImage, updates, false)
}

// BenchPattern is Bench with an access-pattern choice. disjoint forces every
// image to update only its right neighbour's region: the lock traffic and
// remote accesses are identical in kind to the random pattern, but no two
// images ever contend, which makes the virtual-time result deterministic —
// the variant the regression tests rely on. The random pattern carries
// genuine lock collisions (and therefore scheduler noise) like the paper's
// benchmark.
func BenchPattern(opts caf.Options, images, bucketsPerImage, updates int, disjoint bool) (BenchResult, error) {
	res := BenchResult{Images: images, Updates: updates}
	var total float64
	err := caf.Run(images, opts, func(img *caf.Image) {
		t := New(img, bucketsPerImage)
		img.SyncAll()
		img.Clock().Reset()
		rng := uint64(0x12345678*img.ThisImage() + 1)
		right := img.ThisImage()%images + 1
		for i := 0; i < updates; i++ {
			rng = splitmix64(rng)
			if disjoint {
				t.UpdateAt(right, int(rng%uint64(bucketsPerImage)), 1)
			} else if err := t.Update(rng%uint64(images*bucketsPerImage/2), 1); err != nil {
				panic(err)
			}
			// Periodic synchronisation bounds virtual-clock skew between
			// images; without it a single lock collision late in the run can
			// merge a laggard's whole history into one wait (a virtual-time
			// artifact real systems do not have). The cost is identical for
			// every configuration.
			if !disjoint && (i+1)%10 == 0 {
				img.SyncAll()
			}
		}
		img.SyncAll()
		if img.ThisImage() == 1 {
			total = img.Clock().Now()
			res.Pages = img.PageStats()
			res.Metrics = img.Metrics()
		}
		atomic.AddInt64(&res.CommOps, img.Stats.Ops())
	})
	if err != nil {
		return res, err
	}
	res.TimeMs = total / 1e6
	res.UpdatesPS = float64(images*updates) / (total / 1e9)
	return res, nil
}

// ReplayResult is what one chaos replay of the table observed: each image's
// final STAT and how many of its updates applied, image 1's virtual time, and
// the per-link reliability forensics.
type ReplayResult struct {
	Stats     []caf.Stat
	Applied   []int
	TimeMs    float64
	Forensics []caf.LinkReport
}

// Replay runs the random locked-update workload once under opts, whose
// FaultPlan the caller sets, with every image on the STAT-bearing path
// (UpdateStat, SyncAllStat). An image stops at its first STAT other than
// StatOK. A table that fills up panics: that is a sizing error, not a fault.
//
// The same plan does not replay bit-identically. Images contend for the owning
// image's MCS lock, and the engine applies contended swaps in host arrival
// order, so how many updates each image applies and the virtual time follow
// the host schedule. Runs whose images meet only at barriers (Himeno's) do
// replay bit-identically.
func Replay(opts caf.Options, images, bucketsPerImage, updates int) (ReplayResult, error) {
	res := ReplayResult{Stats: make([]caf.Stat, images), Applied: make([]int, images)}
	err := caf.Run(images, opts, func(img *caf.Image) {
		me := img.ThisImage()
		t := New(img, bucketsPerImage)
		if s := img.SyncAllStat(); s != caf.StatOK {
			res.Stats[me-1] = s
			return
		}
		rng := uint64(0x9e3779b9*me + 7)
		for i := 0; i < updates; i++ {
			rng = splitmix64(rng)
			s, err := t.UpdateStat(rng%uint64(images*bucketsPerImage/2), 1)
			if err != nil {
				panic(err)
			}
			if s != caf.StatOK {
				res.Stats[me-1] = s
				break
			}
			res.Applied[me-1]++
			if (i+1)%10 == 0 {
				if s := img.SyncAllStat(); s != caf.StatOK {
					res.Stats[me-1] = s
					break
				}
			}
		}
		if me == 1 {
			res.TimeMs = img.Clock().Now() / 1e6
			res.Forensics = img.LinkReports()
		}
	})
	return res, err
}
