package caf

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// group is the internal object collective algorithms run over: an ordered
// member list with its own control-flag and staging areas. The whole-job
// group backs the co_* intrinsics; each Team carries its own group so that
// collectives on disjoint teams proceed concurrently without interference
// (their flags live at disjoint symmetric offsets, and flags are only ever
// written into member images' partitions).
type group struct {
	img     *Image
	n       int   // member count; members is nil for the identity whole-job group
	members []int // global 1-based image indices; members[0] is the root (nil = identity)
	myIdx   int   // 0-based position of this image in members

	ctlOff      int64
	scratchOff  int64
	scratchSize int64
	growable    bool // whole-job group may reallocate scratch collectively
	seq         int64
}

// worldGroup returns the whole-job group view for this image, filling in the
// image's field on first use.
func (img *Image) worldGroup() *group {
	g := &img.world
	if g.img == nil {
		*g = group{
			img:      img,
			n:        img.NumImages(),
			myIdx:    img.ThisImage() - 1,
			ctlOff:   img.ctlOff,
			growable: true,
		}
	}
	return g
}

func (g *group) size() int { return g.n }

// member returns the 1-based global image index of member i.
func (g *group) member(i int) int {
	if g.members == nil {
		return i + 1
	}
	return g.members[i]
}

// rounds returns ceil(log2(size)).
func (g *group) rounds() int {
	r := 0
	for v := 1; v < g.size(); v <<= 1 {
		r++
	}
	return r
}

func (g *group) nextSeq() int64 {
	g.seq++
	return g.seq
}

// ensureScratch sizes the staging buffer. The whole-job group grows it
// collectively; team groups have a fixed allocation from FormTeam and panic
// with a clear message when it is too small.
func (g *group) ensureScratch(bytes int64) int64 {
	if g.scratchSize >= bytes {
		return g.scratchOff
	}
	if !g.growable {
		panic(fmt.Sprintf("caf: team collective needs %d bytes of staging but the team was formed with %d; pass a larger scratch size to FormTeam", bytes, g.scratchSize))
	}
	img := g.img
	sz := g.scratchSize
	if sz == 0 {
		sz = 4096
	}
	for sz < bytes {
		sz *= 2
	}
	if g.scratchSize > 0 {
		img.be.free(g.scratchOff, g.scratchSize)
	}
	g.scratchOff = img.malloc(sz, true)
	g.scratchSize = sz
	return g.scratchOff
}

// signalFlag writes seq into a member's group flag slot and completes it.
func (g *group) signalFlag(memberIdx, slot int, seq int64) {
	img := g.img
	img.putWord(g.member(memberIdx)-1, g.ctlOff+int64(slot)*8, uint64(seq))
	img.quiet()
}

// awaitFlag spins on this image's group flag slot until it reaches seq.
func (g *group) awaitFlag(slot int, seq int64) {
	g.img.wait(g.ctlOff+int64(slot)*8, pgas.CmpGE, seq)
}

// sendVals puts vals into a member's staging slot at off, completes the put
// and raises the member's flag — one tree edge of a collective.
func sendVals[T pgas.Elem](g *group, memberIdx int, off int64, vals []T, slot int, seq int64) {
	img := g.img
	img.issue(img.xfer(false, g.member(memberIdx)-1, off, pgas.Bytes(vals)))
	img.quiet()
	g.signalFlag(memberIdx, slot, seq)
}

// recvVals loads len(dst) elements from this image's own staging slot at off
// into dst (a local load: free in virtual time).
func recvVals[T pgas.Elem](g *group, dst []T, off int64) {
	g.img.local.ReadLocal(off, pgas.Bytes(dst))
}

// combineVals folds the child contribution staged at off of this image's own
// partition into acc, element by element in index order. The staged elements
// are loaded a stack-resident chunk at a time, so the combine needs no scratch
// of its own.
func combineVals[T pgas.Elem](g *group, acc []T, off int64, op func(a, b T) T) {
	es := int64(pgas.SizeOf[T]())
	var chunk [512]T
	for i := 0; i < len(acc); i += len(chunk) {
		c := chunk[:min(len(chunk), len(acc)-i)]
		g.img.local.ReadLocal(off+int64(i)*es, pgas.Bytes(c))
		for k, v := range c {
			acc[i+k] = op(acc[i+k], v)
		}
	}
}

// reduce runs the binomial gather-combine then distribution over the group.
// resultIdx < 0 distributes to every member; otherwise only members[resultIdx]
// receives the result.
func groupReduce[T pgas.Elem](g *group, vals []T, op func(a, b T) T, resultIdx int) []T {
	n := g.size()
	if n == 1 {
		return append([]T(nil), vals...)
	}
	out := append([]T(nil), vals...) // the call's one allocation
	es := int64(pgas.SizeOf[T]())
	nbytes := int64(len(vals)) * es
	rounds := g.rounds()
	scratch := g.ensureScratch(nbytes * int64(rounds+1))
	seq := g.nextSeq()
	rel := g.myIdx

	for k := 0; k < rounds; k++ {
		mask := 1 << k
		if rel&mask != 0 {
			sendVals(g, rel-mask, scratch+int64(k)*nbytes, out, k, seq)
			break
		}
		if rel+mask >= n {
			continue
		}
		g.awaitFlag(k, seq)
		combineVals(g, out, scratch+int64(k)*nbytes, op)
	}

	bslot := int64(rounds)
	if resultIdx < 0 {
		// Binomial distribution from the root through the same tree.
		if rel != 0 {
			g.awaitFlag(collMaxRounds+highBitCAF(rel), seq)
			recvVals(g, out, scratch+bslot*nbytes)
		}
		start := 0
		if rel != 0 {
			start = highBitCAF(rel) + 1
		}
		for k := start; k < rounds; k++ {
			childRel := rel + (1 << k)
			if childRel >= n {
				break
			}
			sendVals(g, childRel, scratch+bslot*nbytes, out, collMaxRounds+k, seq)
		}
		return out
	}

	if rel == 0 && resultIdx != 0 {
		sendVals(g, resultIdx, scratch+bslot*nbytes, out, collMaxRounds, seq)
	}
	if rel == resultIdx && resultIdx != 0 {
		g.awaitFlag(collMaxRounds, seq)
		recvVals(g, out, scratch+bslot*nbytes)
	}
	return out
}

// groupBroadcast distributes vals from members[sourceIdx] to every member.
func groupBroadcast[T pgas.Elem](g *group, vals []T, sourceIdx int) []T {
	n := g.size()
	out := append([]T(nil), vals...)
	if n == 1 {
		return out
	}
	es := int64(pgas.SizeOf[T]())
	nbytes := int64(len(vals)) * es
	rounds := g.rounds()
	scratch := g.ensureScratch(nbytes * int64(rounds+1))
	seq := g.nextSeq()
	rel := (g.myIdx - sourceIdx + n) % n
	bslot := int64(rounds)

	if rel != 0 {
		g.awaitFlag(collMaxRounds+highBitCAF(rel), seq)
		recvVals(g, out, scratch+bslot*nbytes)
	}
	start := 0
	if rel != 0 {
		start = highBitCAF(rel) + 1
	}
	for k := start; k < rounds; k++ {
		childRel := rel + (1 << k)
		if childRel >= n {
			break
		}
		sendVals(g, (childRel+sourceIdx)%n, scratch+bslot*nbytes, out, collMaxRounds+k, seq)
	}
	return out
}
