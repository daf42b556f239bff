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
	distBytes   int64  // distribution slot size: the largest call so far, in whole words
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

// awaitFlag spins on this image's group flag slot until it reaches seq.
func (g *group) awaitFlag(slot int, seq int64) {
	g.img.wait(g.ctlOff+int64(slot)*8, pgas.CmpGE, seq)
}

// sendVals puts vals into a member's staging slot at off, completes the put,
// then writes seq into the member's flag slot and completes that — one tree
// edge of a collective.
func sendVals[T pgas.Elem](g *group, memberIdx int, off int64, vals []T, slot int, seq int64) {
	img, to := g.img, g.member(memberIdx)-1
	img.issue(img.xfer(false, to, off, pgas.Bytes(vals)))
	img.quiet()
	img.putWord(to, g.ctlOff+int64(slot)*8, uint64(seq))
	img.quiet()
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

// groupReduce is the one collective tree, for whole-job and team groups: a
// binomial gather-combine to members[0], then a binomial distribution from
// it, in place (vals is folded into and sent from), and every member's vals
// ends holding the result. The distribution is each call's release: a member
// enters the next call only after reading it, and the root sends it only
// after consuming every gather slot. The distribution slot starts the
// staging, as large as the largest call so far, and this call's whole-word
// gather slots follow it, so no put of call c+1 lands on a slot call c has
// yet to read, and CmpGE flags are exact. Any call may follow any other with
// no sync.
func groupReduce[T pgas.Elem](g *group, vals []T, op func(a, b T) T) {
	n := g.size()
	if n == 1 {
		return
	}
	nbytes := int64(len(vals)) * int64(pgas.SizeOf[T]())
	rounds := fabric.CeilLog2(n)
	slot := (nbytes + 7) &^ 7
	g.distBytes = max(g.distBytes, slot)
	dist := g.ensureScratch(g.distBytes + int64(rounds)*slot)
	gather := dist + g.distBytes
	seq := g.nextSeq()
	rel := g.myIdx

	for k := 0; k < rounds; k++ {
		mask := 1 << k
		if rel&mask != 0 {
			sendVals(g, rel-mask, gather+int64(k)*slot, vals, k, seq)
			break
		}
		if rel+mask >= n {
			continue
		}
		g.awaitFlag(k, seq)
		combineVals(g, vals, gather+int64(k)*slot, op)
	}
	if rel != 0 {
		g.awaitFlag(collMaxRounds+bits.Len(uint(rel))-1, seq)
		g.img.local.ReadLocal(dist, pgas.Bytes(vals)) // a local load: free in virtual time
	}
	for k := bits.Len(uint(rel)); k < rounds; k++ { // children lie above rel's highest set bit
		childRel := rel + (1 << k)
		if childRel >= n {
			break
		}
		sendVals(g, childRel, dist, vals, collMaxRounds+k, seq)
	}
}

// check panics unless lo <= image <= the group size: image is a 1-based
// member index, or 0 where lo is 0.
func (g *group) check(what string, image, lo int) {
	if image < lo || image > g.n {
		if g.members != nil {
			what = "team " + what
		}
		panic(fmt.Sprintf("caf: %s %d out of range [%d,%d]", what, image, lo, g.n))
	}
}

// coReduce is every CO_* reduction. resultImage (1-based within g, 0 for all
// members) is only range-checked: holding the result on the other members too
// is allowed, since Fortran leaves their arrays undefined.
func coReduce[T pgas.Elem](g *group, vals []T, op func(a, b T) T, resultImage int) {
	g.check("result image", resultImage, 0)
	groupReduce(g, vals, op)
}

// coBroadcast is co_broadcast as a reduction by OR over the array's bytes:
// every member but the source contributes zeros, so any bit pattern arrives
// exactly.
func coBroadcast[T pgas.Elem](g *group, vals []T, sourceImage int) {
	g.check("source image", sourceImage, 1)
	if g.myIdx != sourceImage-1 {
		clear(vals)
	}
	groupReduce(g, pgas.Bytes(vals), orOf)
}

func orOf(a, b byte) byte { return a | b }
