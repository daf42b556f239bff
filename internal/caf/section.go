package caf

// Range selects elements lo..hi (inclusive, 0-based) with a positive step —
// the runtime form of a Fortran subscript triplet lo:hi:step.
type Range struct {
	Lo, Hi, Step int
}

// Count returns the number of selected elements.
func (r Range) Count() int {
	if r.Hi < r.Lo {
		return 0
	}
	if r.Step == 1 {
		return r.Hi - r.Lo + 1
	}
	return (r.Hi-r.Lo)/r.Step + 1
}

// Section is a multi-dimensional array section: one Range per dimension, in
// Fortran dimension order (dimension 1 first — the contiguous one under the
// runtime's column-major layout).
type Section []Range

// All returns the full-extent section of a given shape (the Fortran "(:,:)")
func All(shape ...int) Section {
	s := make(Section, len(shape))
	for i, n := range shape {
		s[i] = Range{Lo: 0, Hi: n - 1, Step: 1}
	}
	return s
}

// Idx returns a single-element section for the given 0-based subscripts.
func Idx(subs ...int) Section {
	s := make(Section, len(subs))
	for i, v := range subs {
		s[i] = Range{Lo: v, Hi: v, Step: 1}
	}
	return s
}

// Counts returns the per-dimension element counts.
func (s Section) Counts() []int {
	c := make([]int, len(s))
	for i, r := range s {
		c[i] = r.Count()
	}
	return c
}

// NumElems returns the total number of selected elements.
func (s Section) NumElems() int {
	n := 1
	for _, r := range s {
		n *= r.Count()
	}
	return n
}
