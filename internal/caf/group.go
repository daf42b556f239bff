package caf

import (
	"fmt"
	"math/bits"

	"cafshmem/internal/fabric"
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
	host        []byte // host-side copy of one staged child contribution (combineVals)
	seq         int64
}

// worldGroup returns the whole-job group view for this image, filling in the
// image's field on first use.
func (img *Image) worldGroup() *group {
	g := &img.world
	if g.img == nil {
		*g = group{
			img:    img,
			n:      img.NumImages(),
			myIdx:  img.ThisImage() - 1,
			ctlOff: img.ctlOff,
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

func (g *group) nextSeq() int64 {
	g.seq++
	return g.seq
}

// ensureScratch sizes the staging buffer. The whole-job group (the one with no
// member list) grows it collectively; team groups have a fixed allocation from
// FormTeam and panic with a clear message when it is too small.
func (g *group) ensureScratch(bytes int64) int64 {
	if g.scratchSize >= bytes {
		return g.scratchOff
	}
	if g.members != nil {
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
// partition into acc, element by element in index order. The staged bytes are
// loaded into the group's host scratch, which grows only when a collective
// needs more than any before it.
func combineVals[T pgas.Elem](g *group, acc []T, off int64, op func(a, b T) T) {
	es := pgas.SizeOf[T]()
	n := len(acc) * es
	if len(g.host) < n {
		g.host = make([]byte, n)
	}
	staged := g.host[:n]
	g.img.local.ReadLocal(off, staged)
	for i := range acc {
		acc[i] = op(acc[i], pgas.Load[T](staged[i*es:]))
	}
}

// groupReduce runs the binomial gather-combine then distribution over the
// group, in place: vals is folded into and sent from directly. resultIdx < 0
// leaves the result in every member's vals; otherwise only
// members[resultIdx]'s vals holds it, and the others' hold whatever partial
// combination the tree left there.
func groupReduce[T pgas.Elem](g *group, vals []T, op func(a, b T) T, resultIdx int) {
	n := g.size()
	if n == 1 {
		return
	}
	es := int64(pgas.SizeOf[T]())
	nbytes := int64(len(vals)) * es
	rounds := fabric.CeilLog2(n)
	scratch := g.ensureScratch(nbytes * int64(rounds+1))
	seq := g.nextSeq()
	rel := g.myIdx

	for k := 0; k < rounds; k++ {
		mask := 1 << k
		if rel&mask != 0 {
			sendVals(g, rel-mask, scratch+int64(k)*nbytes, vals, k, seq)
			break
		}
		if rel+mask >= n {
			continue
		}
		g.awaitFlag(k, seq)
		combineVals(g, vals, scratch+int64(k)*nbytes, op)
	}

	bslot := int64(rounds)
	if resultIdx < 0 {
		// Binomial distribution from the root through the same tree.
		if rel != 0 {
			g.awaitFlag(collMaxRounds+bits.Len(uint(rel))-1, seq)
			recvVals(g, vals, scratch+bslot*nbytes)
		}
		for k := bits.Len(uint(rel)); k < rounds; k++ { // children lie above rel's highest set bit
			childRel := rel + (1 << k)
			if childRel >= n {
				break
			}
			sendVals(g, childRel, scratch+bslot*nbytes, vals, collMaxRounds+k, seq)
		}
		return
	}

	if rel == 0 && resultIdx != 0 {
		sendVals(g, resultIdx, scratch+bslot*nbytes, vals, collMaxRounds, seq)
	}
	if rel == resultIdx && resultIdx != 0 {
		g.awaitFlag(collMaxRounds, seq)
		recvVals(g, vals, scratch+bslot*nbytes)
	}
}

// groupBroadcast overwrites every member's vals with members[sourceIdx]'s.
func groupBroadcast[T pgas.Elem](g *group, vals []T, sourceIdx int) {
	n := g.size()
	if n == 1 {
		return
	}
	es := int64(pgas.SizeOf[T]())
	nbytes := int64(len(vals)) * es
	rounds := fabric.CeilLog2(n)
	scratch := g.ensureScratch(nbytes * int64(rounds+1))
	seq := g.nextSeq()
	rel := (g.myIdx - sourceIdx + n) % n
	bslot := int64(rounds)

	if rel != 0 {
		g.awaitFlag(collMaxRounds+bits.Len(uint(rel))-1, seq)
		recvVals(g, vals, scratch+bslot*nbytes)
	}
	for k := bits.Len(uint(rel)); k < rounds; k++ { // children lie above rel's highest set bit
		childRel := rel + (1 << k)
		if childRel >= n {
			break
		}
		sendVals(g, (childRel+sourceIdx)%n, scratch+bslot*nbytes, vals, collMaxRounds+k, seq)
	}
}
