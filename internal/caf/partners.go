package caf

// partner is one image's point-to-point sequence record: the last sequence
// this image sent it and the last it consumed from it.
type partner struct {
	image      int // 1-based; 0 marks a free inline record
	sent, seen int64
}

// partners is a per-partner sequence table: a record for each image this
// image has notified, waited on or synced with, and none for any other. The
// first two records are inline, so a 1-D halo's two neighbours cost nothing
// past the table's owner (a Signal, an Image); later partners spill to a
// map. An image that talks to all n partners costs O(n) and never more, and
// the table holds no O(images) array of its own.
type partners struct {
	first [2]partner
	more  map[int]*partner
}

// find returns image j's record, nil if j has none.
func (t *partners) find(j int) *partner {
	for i := range t.first {
		if t.first[i].image == j {
			return &t.first[i]
		}
	}
	return t.more[j]
}

// rec returns image j's record, adding a zero one if j has none.
func (t *partners) rec(j int) *partner {
	if r := t.find(j); r != nil {
		return r
	}
	for i := range t.first {
		if t.first[i].image == 0 {
			t.first[i].image = j
			return &t.first[i]
		}
	}
	if t.more == nil {
		t.more = make(map[int]*partner)
	}
	r := &partner{image: j}
	t.more[j] = r
	return r
}

// seen is the last sequence consumed from image j (0 before the first).
func (t *partners) seen(j int) int64 {
	if r := t.find(j); r != nil {
		return r.seen
	}
	return 0
}
