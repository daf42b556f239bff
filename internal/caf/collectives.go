package caf

import "cafshmem/internal/pgas"

// CAF collective subroutines (co_sum, co_min, co_max, co_reduce,
// co_broadcast). Per the paper (§IV footnote): "In UHCAF, we implement CAF
// reductions and broadcasts using 1-sided communication and remote atomics
// available in OpenSHMEM" — so these are built here from transport puts and
// point-to-point flags in one binomial tree (groupReduce, group.go), not
// delegated to a collectives library. The same tree serves every reduction,
// co_broadcast, and the team forms (teams.go), and any call may follow any
// other with no synchronisation between them.
//
// As in Fortran 2018, where a collective's array argument is INTENT(INOUT),
// every collective works in place on the caller's slice and returns nothing:
// the tree folds into vals and sends from it, so a collective allocates
// nothing once its group's staging is sized.

const collMaxRounds = 64

// CoSum is co_sum: vals becomes the elementwise sum of vals across images.
// resultImage (1-based) names the image that must receive the sum, 0 every
// image; every image's vals holds it afterwards either way. Any CO_* call may
// follow any other with no synchronisation between them.
func CoSum[T pgas.Elem](img *Image, vals []T, resultImage int) {
	coReduce(img.worldGroup(), vals, func(a, b T) T { return a + b }, resultImage)
}

// CoMin is co_min.
func CoMin[T pgas.Elem](img *Image, vals []T, resultImage int) {
	coReduce(img.worldGroup(), vals, minOf[T], resultImage)
}

// CoMax is co_max.
func CoMax[T pgas.Elem](img *Image, vals []T, resultImage int) {
	coReduce(img.worldGroup(), vals, maxOf[T], resultImage)
}

// CoReduce is co_reduce with a user-supplied commutative combiner.
func CoReduce[T pgas.Elem](img *Image, vals []T, op func(a, b T) T, resultImage int) {
	coReduce(img.worldGroup(), vals, op, resultImage)
}

// CoBroadcast is co_broadcast: vals from sourceImage (1-based) overwrite vals
// on every image. Like every CO_* call, it may follow or precede any other
// with no synchronisation between them.
func CoBroadcast[T pgas.Elem](img *Image, vals []T, sourceImage int) {
	coBroadcast(img.worldGroup(), vals, sourceImage)
}

func minOf[T pgas.Elem](a, b T) T {
	if b < a {
		return b
	}
	return a
}

func maxOf[T pgas.Elem](a, b T) T {
	if b > a {
		return b
	}
	return a
}
