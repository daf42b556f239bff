package caf

import (
	"fmt"
	"sort"

	"cafshmem/internal/pgas"
)

// Team implements coarray teams (Fortran 2018's FORM TEAM / CHANGE TEAM),
// one of the beyond-Fortran-2008 features the OpenUH runtime family carries
// (§II-A). A team is a subset of images with its own image numbering,
// barrier, and collectives. Team operations map onto the same OpenSHMEM
// facilities as everything else: remote atomics for the dissemination
// barrier, one-sided puts plus flags for the collective trees.
type Team struct {
	img *Image
	g   *group
	num int64
}

// DefaultTeamScratchBytes is the staging space reserved per image for a
// team's collectives when FormTeam is not given an explicit size.
const DefaultTeamScratchBytes = 64 << 10

// FormTeam executes "form team(teamNumber, team)": a collective over *all*
// images in which images supplying the same teamNumber become a team.
// scratchBytes (optional, at most one value) sizes the team's collective
// staging area; team collectives needing more panic with a clear message.
//
// The member exchange is itself built from one-sided communication: each
// image publishes its team number in symmetric memory, and after a barrier
// every image reads all of them.
func (img *Image) FormTeam(teamNumber int64, scratchBytes ...int64) *Team {
	scratch := int64(DefaultTeamScratchBytes)
	if len(scratchBytes) > 1 {
		panic("caf: FormTeam takes at most one scratch size")
	}
	if len(scratchBytes) == 1 {
		if scratchBytes[0] <= 0 {
			panic("caf: FormTeam scratch size must be positive")
		}
		scratch = scratchBytes[0]
	}

	// Publish this image's team number.
	numOff := img.malloc(8, false)
	img.storeLocalWord(numOff, uint64(teamNumber))
	img.SyncAll()

	// Read everyone's number and collect the members of mine.
	var members []int
	num := make([]int64, 1)
	for j := 1; j <= img.NumImages(); j++ {
		img.issue(img.xfer(true, j-1, numOff, pgas.Bytes(num)))
		if num[0] == teamNumber {
			members = append(members, j)
		}
	}
	sort.Ints(members)
	myIdx := sort.SearchInts(members, img.ThisImage())

	// Team-scoped collective areas. All images allocate (Malloc is
	// collective over the job), but only a team's members ever use its
	// image-local slots, so disjoint teams never interfere.
	ctlOff := img.malloc(2*collMaxRounds*8, true)
	scratchOff := img.malloc(scratch, true)
	img.barrier()
	img.be.free(numOff, 8)

	return &Team{
		img: img,
		num: teamNumber,
		g: &group{
			img:         img,
			n:           len(members),
			members:     members,
			myIdx:       myIdx,
			ctlOff:      ctlOff,
			scratchOff:  scratchOff,
			scratchSize: scratch,
		},
	}
}

// TeamNumber returns the number this team was formed with.
func (t *Team) TeamNumber() int64 { return t.num }

// ThisImage returns this image's index *within the team*, 1-based — the
// value this_image() reports inside a CHANGE TEAM block.
func (t *Team) ThisImage() int { return t.g.myIdx + 1 }

// NumImages returns the team size.
func (t *Team) NumImages() int { return t.g.size() }

// Members returns the team's global image indices, ascending.
func (t *Team) Members() []int { return append([]int(nil), t.g.members...) }

// GlobalImage maps a team image index (1-based) to the global image index.
func (t *Team) GlobalImage(teamImage int) int {
	if teamImage < 1 || teamImage > t.g.size() {
		panic(fmt.Sprintf("caf: team image %d out of range [1,%d]", teamImage, t.g.size()))
	}
	return t.g.members[teamImage-1]
}

// TeamImage maps a global image index to this team's numbering (0 if the
// image is not a member) — the image_index(team) intrinsic.
func (t *Team) TeamImage(globalImage int) int {
	i := sort.SearchInts(t.g.members, globalImage)
	if i < len(t.g.members) && t.g.members[i] == globalImage {
		return i + 1
	}
	return 0
}

// Sync executes "sync team(team)": a barrier over the members only, built
// as a dissemination barrier from pairwise signal/await counters. Outstanding
// puts complete first, as with sync all.
func (t *Team) Sync() {
	t.img.quiet()
	n := t.g.size()
	if n == 1 {
		return
	}
	me := t.g.myIdx
	for k := 1; k < n; k <<= 1 {
		to := t.g.members[(me+k)%n]
		from := t.g.members[(me-k%n+n)%n]
		t.img.signalImage(to)
		t.img.awaitImage(from)
	}
}

// CoSumTeam is co_sum within the team, in place like CoSum. resultImage is a
// *team* image index (0 = all members); every member holds the sum either
// way, and any team or whole-job CO_* call may follow it with no sync.
func CoSumTeam[T pgas.Elem](t *Team, vals []T, resultImage int) {
	coReduce(t.g, vals, func(a, b T) T { return a + b }, resultImage)
}

// CoMinTeam is co_min within the team.
func CoMinTeam[T pgas.Elem](t *Team, vals []T, resultImage int) {
	coReduce(t.g, vals, minOf[T], resultImage)
}

// CoMaxTeam is co_max within the team.
func CoMaxTeam[T pgas.Elem](t *Team, vals []T, resultImage int) {
	coReduce(t.g, vals, maxOf[T], resultImage)
}

// CoReduceTeam is co_reduce within the team.
func CoReduceTeam[T pgas.Elem](t *Team, vals []T, op func(a, b T) T, resultImage int) {
	coReduce(t.g, vals, op, resultImage)
}

// CoBroadcastTeam is co_broadcast within the team; sourceImage is a team
// image index. Like CoBroadcast, it needs no sync on either side.
func CoBroadcastTeam[T pgas.Elem](t *Team, vals []T, sourceImage int) {
	coBroadcast(t.g, vals, sourceImage)
}
