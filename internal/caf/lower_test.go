package caf

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The four walks Coarray.lower replaced, kept as they were: its oracle.

// validate checks the section against an array shape.
func (s Section) validate(shape []int) error {
	if len(s) != len(shape) {
		return fmt.Errorf("caf: section rank %d does not match array rank %d", len(s), len(shape))
	}
	for d, r := range s {
		if r.Step < 1 {
			return fmt.Errorf("caf: dimension %d: step %d must be >= 1", d+1, r.Step)
		}
		if r.Lo < 0 || r.Hi >= shape[d] {
			return fmt.Errorf("caf: dimension %d: range %d:%d outside extent %d", d+1, r.Lo, r.Hi, shape[d])
		}
		if r.Count() == 0 {
			return fmt.Errorf("caf: dimension %d: empty range %d:%d:%d", d+1, r.Lo, r.Hi, r.Step)
		}
	}
	return nil
}

// contigRun returns the number of leading dimensions that form one
// contiguous run and the run length in elements. Dimension d can merge into
// the run if its step is 1 and every earlier dimension is covered in full.
func (c *Coarray[T]) contigRun(sec Section) (runDims, runElems int) {
	runElems = 1
	fullSoFar := true
	for d := 0; d < len(sec); d++ {
		if sec[d].Step != 1 || (d > 0 && !fullSoFar) {
			break
		}
		runElems *= sec[d].Count()
		runDims = d + 1
		fullSoFar = fullSoFar && sec[d].Lo == 0 && sec[d].Count() == c.shape[d]
	}
	if runDims == 0 {
		runElems = 1
	}
	return runDims, runElems
}

// secLowOff returns the absolute byte offset of the section's low corner.
func (c *Coarray[T]) secLowOff(sec Section) int64 {
	var lin int64
	for d := range sec {
		lin += int64(sec[d].Lo) * int64(c.strides[d])
	}
	return c.off + lin*int64(c.es)
}

// geometryOnly is a coarray of the given shape at partition offset 192 with no
// image behind it: enough for lower, which reads the geometry alone.
func geometryOnly(shape ...int) *Coarray[int64] {
	c := &Coarray[int64]{off: 192, es: 8}
	c.shape, c.strides, c.codims, c.n = coarrayGeometry(c.geo[:0], shape)
	return c
}

// randomRange draws a range over [0, extent): mostly valid — full, partial or
// a single element, at steps 1 to 4 — and now and then broken in one way.
func randomRange(rng *rand.Rand, extent int) Range {
	r := Range{Lo: 0, Hi: extent - 1, Step: 1}
	switch rng.Intn(4) {
	case 0: // full
	case 1: // single element
		r.Lo = rng.Intn(extent)
		r.Hi = r.Lo
	default: // partial
		r.Lo = rng.Intn(extent)
		r.Hi = r.Lo + rng.Intn(extent-r.Lo)
	}
	if rng.Intn(3) == 0 {
		r.Step = 1 + rng.Intn(4)
	}
	switch rng.Intn(24) {
	case 0:
		r.Step = -rng.Intn(2) // 0 or -1
	case 1:
		r.Hi = extent + rng.Intn(2)
	case 2:
		r.Lo = -1 - rng.Intn(2)
	case 3:
		r.Lo, r.Hi = r.Hi+1, r.Lo // empty
	}
	return r
}

// lower is one pass for what validate, NumElems, contigRun and secLowOff
// derived in four: same results, and the same first error with the same text.
func TestLowerMatchesItsPredecessors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	valid, invalid := 0, 0
	for i := 0; i < 20000; i++ {
		shape := make([]int, 1+rng.Intn(5))
		for d := range shape {
			shape[d] = 1 + rng.Intn(6)
		}
		c := geometryOnly(shape...)
		rank := len(shape)
		if rng.Intn(20) == 0 { // wrong rank
			rank = rng.Intn(7)
		}
		sec := make(Section, rank)
		for d := range sec {
			sec[d] = randomRange(rng, shape[min(d, len(shape)-1)])
		}
		n, runDims, runElems, low, err := c.lower(sec)
		if want := sec.validate(shape); want != nil {
			invalid++
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("shape %v section %v: lower's error %v, validate's %v", shape, sec, err, want)
			}
			continue
		}
		valid++
		if err != nil {
			t.Fatalf("shape %v section %v: lower fails with %v, validate passes", shape, sec, err)
		}
		dims, elems := c.contigRun(sec)
		got, want := [4]int64{int64(n), int64(runDims), int64(runElems), low}, [4]int64{int64(sec.NumElems()), int64(dims), int64(elems), c.secLowOff(sec)}
		if got != want {
			t.Fatalf("shape %v section %v: lower yields (n, runDims, runElems, low) = %v, its predecessors %v", shape, sec, got, want)
		}
	}
	if valid < 5000 || invalid < 2000 {
		t.Fatalf("%d valid and %d invalid sections drawn: the generator no longer covers both", valid, invalid)
	}
}

// The one check of a section put that is not the section's own.
func TestPutValueCountMismatchPanics(t *testing.T) {
	err := Run(2, shmemOpts(), func(img *Image) {
		c := Allocate[int64](img, 4, 4)
		if img.ThisImage() == 1 {
			c.Put(2, Section{{0, 3, 1}, {1, 2, 1}}, make([]int64, 7))
		}
	})
	const want = "caf: section selects 8 elements but 7 values given"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Run returned %v, want a panic saying %q", err, want)
	}
}
