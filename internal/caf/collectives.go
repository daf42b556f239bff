package caf

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// CAF collective subroutines (co_sum, co_min, co_max, co_reduce,
// co_broadcast). Per the paper (§IV footnote): "In UHCAF, we implement CAF
// reductions and broadcasts using 1-sided communication and remote atomics
// available in OpenSHMEM" — so these are built here from transport puts and
// point-to-point flags in a binomial tree (see group.go), not delegated to a
// collectives library. The same machinery serves whole-job collectives and
// team collectives (teams.go).
//
// As in Fortran 2018, where a collective's array argument is INTENT(INOUT),
// every collective works in place on the caller's slice and returns nothing:
// the tree folds into vals and sends from it, so a collective allocates
// nothing once its group's staging is sized.

const collMaxRounds = 64

func resultIdxFor(img *Image, resultImage int) int {
	if resultImage == 0 {
		return -1
	}
	if resultImage < 0 || resultImage > img.NumImages() {
		panic(fmt.Sprintf("caf: result image %d out of range [0,%d]", resultImage, img.NumImages()))
	}
	return resultImage - 1
}

// CoSum is co_sum: vals becomes the elementwise sum of vals across images.
// resultImage 0 delivers to every image; otherwise only the given image's
// (1-based) vals is defined afterwards, and the other images' must not be
// read.
func CoSum[T pgas.Elem](img *Image, vals []T, resultImage int) {
	groupReduce(img.worldGroup(), vals, func(a, b T) T { return a + b }, resultIdxFor(img, resultImage))
}

// CoMin is co_min.
func CoMin[T pgas.Elem](img *Image, vals []T, resultImage int) {
	groupReduce(img.worldGroup(), vals, minOf[T], resultIdxFor(img, resultImage))
}

// CoMax is co_max.
func CoMax[T pgas.Elem](img *Image, vals []T, resultImage int) {
	groupReduce(img.worldGroup(), vals, maxOf[T], resultIdxFor(img, resultImage))
}

// CoReduce is co_reduce with a user-supplied commutative combiner.
func CoReduce[T pgas.Elem](img *Image, vals []T, op func(a, b T) T, resultImage int) {
	groupReduce(img.worldGroup(), vals, op, resultIdxFor(img, resultImage))
}

// CoBroadcast is co_broadcast: vals from sourceImage (1-based) overwrite vals
// on every image. Its source waits for no other image, and the tree reuses
// its staging slots from call to call, so a broadcast needs a synchronisation
// on either side when other collectives run on the same images: without one,
// its puts or the next call's can overwrite a staged value that an image has
// not yet read.
func CoBroadcast[T pgas.Elem](img *Image, vals []T, sourceImage int) {
	img.checkImage(sourceImage)
	groupBroadcast(img.worldGroup(), vals, sourceImage-1)
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
