package shmem

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// Collectives are built from one-sided puts/gets plus point-to-point flags,
// the way the paper's runtime builds CAF reductions and broadcasts over
// OpenSHMEM one-sided communication (footnote 1 in §IV). A binomial tree is
// used for both directions, so costs scale as O(log n) rounds of the
// underlying put/get costs.

const maxRounds = 64 // log2 of any conceivable PE count

// ensureCtl lazily allocates the world's collective control area: one flag
// word per tree round for the gather direction plus one per round for the
// broadcast direction, per PE.
func (pe *PE) ensureCtl() Sym {
	w := pe.world
	w.ctlOnce.Do(func() { w.ctl = w.internalAlloc(2 * maxRounds * 8) })
	return w.ctl
}

// internalAlloc allocates an area the library keeps for the rest of the job:
// live for the sanitizer's handle check, and the library's own, so no leak.
func (w *World) internalAlloc(size int64) Sym {
	off, err := w.pw.Alloc(size)
	if err != nil {
		panic(err)
	}
	w.pw.MarkInternal(off)
	return Sym{Off: off, Size: size}
}

func ceilLog2(n int) int {
	r, v := 0, 1
	for v < n {
		v <<= 1
		r++
	}
	return r
}

// nextSeq returns this PE's next collective sequence number. Collectives are
// globally ordered (every PE participates in every collective), so the
// per-PE counters agree by construction.
func (pe *PE) nextSeq() int64 {
	pe.collSeq++
	return pe.collSeq
}

// signal writes seq into the target's round flag. Completion is
// signal-mediated (PutSignal with no payload): the awaiting PE's WaitUntil64
// adopts the flag write's timestamp, so no Quiet — which would flush *all* of
// this PE's outstanding traffic just to complete one 8-byte flag — is needed.
func (pe *PE) signal(target int, ctl Sym, slot int, seq int64) {
	pe.PutSignal(target, ctl, 0, nil, ctl, slot, seq)
}

// awaitFlag blocks until the local round flag reaches seq.
func (pe *PE) awaitFlag(ctl Sym, slot int, seq int64) {
	pe.WaitUntil64(ctl, slot, CmpGE, seq)
}

// Broadcast copies nbytes of the symmetric object sym from root to every PE
// (shmem_broadcast). All PEs must call it. On return the data is usable on
// every PE.
func (pe *PE) Broadcast(root int, sym Sym, nbytes int64) {
	n := pe.NumPEs()
	pe.p.RecordCollective("Broadcast", int64(root), sym.Off, nbytes)
	if n == 1 {
		return
	}
	if nbytes > sym.Size {
		panic(fmt.Sprintf("shmem: broadcast of %d bytes exceeds %d-byte object", nbytes, sym.Size))
	}
	ctl := pe.ensureCtl()
	seq := pe.nextSeq()
	rel := (pe.MyPE() - root + n) % n
	rounds := ceilLog2(n)
	buf := make([]byte, nbytes)

	// Wait for my parent's delivery (non-roots).
	if rel != 0 {
		// Parent sends in the round equal to the position of rel's highest
		// set bit.
		round := highBit(rel)
		pe.awaitFlag(ctl, maxRounds+round, seq)
	}
	// Forward to children: child = rel + 2^k for k above my highest bit.
	start := 0
	if rel != 0 {
		start = highBit(rel) + 1
	}
	for k := start; k < rounds; k++ {
		childRel := rel + (1 << k)
		if childRel >= n {
			break
		}
		child := (childRel + root) % n
		pe.world.pw.Read(pe.p.ID, sym.Off, buf)
		// One put-with-signal delivers payload and round flag together: the
		// child's awaitFlag orders it after both, replacing the old
		// put + full Quiet + flag put + full Quiet sequence.
		pe.PutSignal(child, sym, 0, buf, ctl, maxRounds+k, seq)
	}
}

// ReduceOp names a reduction operator (the shmem_<op>_to_all family).
type ReduceOp int

const (
	OpSum ReduceOp = iota
	OpProd
	OpMin
	OpMax
	OpBAnd // integer only
	OpBOr  // integer only
	OpBXor // integer only
)

func (op ReduceOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpBAnd:
		return "and"
	case OpBOr:
		return "or"
	default:
		return "xor"
	}
}

func combine[T pgas.Elem](op ReduceOp, dst, src []T) {
	for i := range dst {
		a, b := dst[i], src[i]
		switch op {
		case OpSum:
			dst[i] = a + b
		case OpProd:
			dst[i] = a * b
		case OpMin:
			if b < a {
				dst[i] = b
			}
		case OpMax:
			if b > a {
				dst[i] = b
			}
		case OpBAnd:
			dst[i] = T(asBits(a) & asBits(b))
		case OpBOr:
			dst[i] = T(asBits(a) | asBits(b))
		case OpBXor:
			dst[i] = T(asBits(a) ^ asBits(b))
		}
	}
}

func asBits[T pgas.Elem](v T) uint64 {
	switch x := any(v).(type) {
	case byte:
		return uint64(x)
	case int32:
		return uint64(uint32(x))
	case int64:
		return uint64(x)
	case uint64:
		return x
	case float32, float64:
		panic("shmem: bitwise reduction on floating-point data")
	}
	return 0
}

// ToAll performs an all-reduce over n elements: src on every PE is combined
// with op and the result lands in dest on every PE (shmem_<type>_<op>_to_all
// with a full active set). src and dest are symmetric objects; dest doubles
// as the accumulation workspace, mirroring how the real library uses pWrk.
func ToAll[T pgas.Elem](pe *PE, op ReduceOp, dest, src Sym, n int) {
	es := int64(pgas.SizeOf[T]())
	if int64(n)*es > dest.Size || int64(n)*es > src.Size {
		panic("shmem: reduction length exceeds symmetric object size")
	}
	pe.p.RecordCollective("ToAll", int64(op), dest.Off, src.Off, int64(n))
	npes := pe.NumPEs()
	// Seed dest with the local contribution.
	pw, me := pe.world.pw, pe.p.ID
	acc := make([]T, n)
	pw.Read(me, src.Off, pgas.Bytes(acc))
	pw.Write(me, dest.Off, pgas.Bytes(acc), pe.p.Clock.Now())
	if npes == 1 {
		return
	}

	ctl := pe.ensureCtl()
	seq := pe.nextSeq()
	rel := pe.MyPE() // reductions root at PE 0
	rounds := ceilLog2(npes)
	part := make([]T, n)

	// Gather: children push "ready", parents pull and combine.
	for k := 0; k < rounds; k++ {
		mask := 1 << k
		if rel&mask != 0 {
			parent := rel - mask
			pe.signal(parent, ctl, k, seq)
			break
		}
		childRel := rel + mask
		if childRel >= npes {
			continue
		}
		pe.awaitFlag(ctl, k, seq)
		pe.GetMem(childRel, dest, 0, pgas.Bytes(part))
		pw.Read(me, dest.Off, pgas.Bytes(acc))
		combine(op, acc, part)
		pw.Write(me, dest.Off, pgas.Bytes(acc), pe.p.Clock.Now())
	}
	// Broadcast the result from PE 0 through the same tree.
	pe.Broadcast(0, dest, int64(n)*es)
}

// FCollect concatenates nelems elements from every PE's src into dest on all
// PEs, ordered by rank (shmem_fcollect). dest must hold npes*nelems elements.
func FCollect[T pgas.Elem](pe *PE, dest, src Sym, nelems int) {
	es := int64(pgas.SizeOf[T]())
	npes := pe.NumPEs()
	if int64(npes*nelems)*es > dest.Size {
		panic("shmem: fcollect destination too small")
	}
	// The hash deliberately omits src.Off: Collect feeds FCollect a per-PE
	// source window, and like real fcollect only the shape must agree.
	pe.p.RecordCollective("FCollect", dest.Off, int64(nelems))
	raw := make([]byte, int64(nelems)*es)
	pe.world.pw.Read(pe.p.ID, src.Off, raw)
	for t := 0; t < npes; t++ {
		pe.PutMem(t, dest, int64(pe.MyPE()*nelems)*es, raw)
	}
	pe.Barrier()
}

// Collect concatenates a *varying* number of elements from every PE into
// dest on all PEs, ordered by rank (shmem_collect). Each PE passes its own
// nelems; the offsets are computed with an exclusive prefix sum of the
// per-PE counts (gathered through FCollect), as real implementations do.
// It returns the total number of elements collected.
func Collect[T pgas.Elem](pe *PE, dest, src Sym, nelems int) int {
	npes := pe.NumPEs()
	es := int64(pgas.SizeOf[T]())
	// Per-PE nelems is the point of Collect, so only the destination is hashed.
	pe.p.RecordCollective("Collect", dest.Off)

	// Exchange the counts, through the world's two count areas.
	w := pe.world
	w.countsOnce.Do(func() { w.counts, w.countsDst = w.internalAlloc(int64(npes)*8), w.internalAlloc(int64(npes)*8) })
	counts, countsDst := w.counts, w.countsDst
	Put(pe, pe.MyPE(), counts, pe.MyPE(), []int64{int64(nelems)})
	FCollect[int64](pe, countsDst, Sym{Off: pe.wordOff("collect", counts, pe.MyPE()), Size: 8}, 1)
	all := Get[int64](pe, pe.MyPE(), countsDst, 0, npes)

	offset := int64(0)
	total := int64(0)
	for r := 0; r < npes; r++ {
		if r < pe.MyPE() {
			offset += all[r]
		}
		total += all[r]
	}
	if total*es > dest.Size {
		panic(fmt.Sprintf("shmem: collect of %d elements overflows %d-byte destination", total, dest.Size))
	}
	if int64(nelems)*es > src.Size {
		panic("shmem: collect source smaller than contribution")
	}

	// Deposit this PE's block at its offset on every PE.
	if nelems > 0 {
		raw := make([]byte, int64(nelems)*es)
		pe.world.pw.Read(pe.p.ID, src.Off, raw)
		for t := 0; t < npes; t++ {
			pe.PutMem(t, dest, offset*es, raw)
		}
	}
	pe.Barrier()
	return int(total)
}

func highBit(v int) int {
	h := -1
	for v > 0 {
		v >>= 1
		h++
	}
	return h
}
