package pgas

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cafshmem/internal/fabric"
)

// The vectored entry points (WriteV/ReadV/WriteRuns/ReadRuns) must move bytes
// and record timestamps exactly as the equivalent sequence of element-wise
// Write/Read calls — that equivalence is what makes routing the strided
// algorithms through them safe for virtual-time bit-identity. These property
// tests drive a vectored world and an element-wise world with the same
// randomised transfers (including overlapping placements and out-of-extent
// reads) and require identical observable state.

func twoWorlds(t *testing.T) (*World, *World) {
	t.Helper()
	wv, err := NewWorld(fabric.Stampede(), 2)
	if err != nil {
		t.Fatal(err)
	}
	we, err := NewWorld(fabric.Stampede(), 2)
	if err != nil {
		t.Fatal(err)
	}
	return wv, we
}

func comparePartitions(t *testing.T, wv, we *World, target int, extent int64) {
	t.Helper()
	bv := make([]byte, extent)
	be := make([]byte, extent)
	wv.Read(target, 0, bv)
	we.Read(target, 0, be)
	if !bytes.Equal(bv, be) {
		t.Fatalf("vectored and element-wise partitions differ over [0,%d)", extent)
	}
	// Timestamps must agree word by word, not just content.
	for off := int64(0); off+8 <= extent; off += 8 {
		tv := wv.pes[target].rangeTs(off, 8)
		te := we.pes[target].rangeTs(off, 8)
		if tv != te {
			t.Fatalf("word %d: vectored ts %v != element-wise ts %v", off, tv, te)
		}
	}
}

func TestWriteVMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		wv, we := twoWorlds(t)
		const extent = 8192
		for xfer := 0; xfer < 4; xfer++ {
			es := 1 + rng.Intn(64)
			nelems := rng.Intn(16)
			stride := int64(rng.Intn(3 * es)) // includes overlap (stride < es) and zero
			off := int64(rng.Intn(1024))
			src := make([]byte, nelems*es)
			rng.Read(src)
			vis := float64(rng.Intn(1000))
			wv.WriteV(1, off, stride, es, src, vis)
			for k := 0; k < nelems; k++ {
				we.Write(1, off+int64(k)*stride, src[k*es:(k+1)*es], vis)
			}
		}
		comparePartitions(t, wv, we, 1, extent)
	}
}

func TestWriteRunsMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		wv, we := twoWorlds(t)
		const extent = 8192
		runBytes := 1 + rng.Intn(96)
		nruns := rng.Intn(12)
		base := int64(rng.Intn(256))
		offs := make([]int64, nruns)
		visAt := make([]float64, nruns)
		for i := range offs {
			// Overlapping runs are deliberate: later runs must win, exactly
			// as sequential Writes would resolve them.
			offs[i] = int64(rng.Intn(2048))
			visAt[i] = float64(rng.Intn(1000))
		}
		src := make([]byte, nruns*runBytes)
		rng.Read(src)
		wv.WriteRuns(1, base, offs, runBytes, src, visAt)
		for i, o := range offs {
			we.Write(1, base+o, src[i*runBytes:(i+1)*runBytes], visAt[i])
		}
		comparePartitions(t, wv, we, 1, extent)
	}
}

func TestReadVMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		wv, we := twoWorlds(t)
		seed := make([]byte, 2048)
		rng.Read(seed)
		wv.Write(1, 0, seed, 1)
		we.Write(1, 0, seed, 1)
		es := 1 + rng.Intn(64)
		nelems := rng.Intn(16)
		stride := int64(rng.Intn(4 * es))
		// Offsets may run past the written extent: both paths must read zeros
		// there without growing the partition.
		off := int64(rng.Intn(4096))
		dv := make([]byte, nelems*es)
		de := make([]byte, nelems*es)
		wv.ReadV(1, off, stride, es, dv)
		for k := 0; k < nelems; k++ {
			we.Read(1, off+int64(k)*stride, de[k*es:(k+1)*es])
		}
		if !bytes.Equal(dv, de) {
			t.Fatalf("iter %d: ReadV gathered different bytes than element-wise reads", iter)
		}
	}
}

func TestReadRunsMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 200; iter++ {
		wv, we := twoWorlds(t)
		seed := make([]byte, 2048)
		rng.Read(seed)
		wv.Write(1, 16, seed, 1)
		we.Write(1, 16, seed, 1)
		runBytes := 1 + rng.Intn(96)
		nruns := rng.Intn(12)
		base := int64(rng.Intn(64))
		offs := make([]int64, nruns)
		for i := range offs {
			offs[i] = int64(rng.Intn(4096))
		}
		dv := make([]byte, nruns*runBytes)
		de := make([]byte, nruns*runBytes)
		wv.ReadRuns(1, base, offs, runBytes, dv)
		for i, o := range offs {
			we.Read(1, base+o, de[i*runBytes:(i+1)*runBytes])
		}
		if !bytes.Equal(dv, de) {
			t.Fatalf("iter %d: ReadRuns gathered different bytes than element-wise reads", iter)
		}
	}
}

// Writes to a failed PE's partition are dropped by Write; the vectored entry
// points must drop them identically.
func TestVectoredWritesToFailedPEAreDropped(t *testing.T) {
	wv, we := twoWorlds(t)
	before := []byte{9, 9, 9, 9}
	wv.Write(1, 0, before, 1)
	we.Write(1, 0, before, 1)
	wv.depart(&wv.pes[1], stateFailed)
	we.depart(&we.pes[1], stateFailed)
	wv.WriteV(1, 0, 1, 1, []byte{1, 2, 3, 4}, 5)
	wv.WriteRuns(1, 0, []int64{0, 2}, 2, []byte{5, 6, 7, 8}, []float64{5, 5})
	we.Write(1, 0, []byte{1, 2, 3, 4}, 5)
	got := make([]byte, 4)
	wv.Read(1, 0, got)
	if !bytes.Equal(got, before) {
		t.Fatalf("vectored write landed in frozen partition: %v", got)
	}
	we.Read(1, 0, got)
	if !bytes.Equal(got, before) {
		t.Fatalf("element-wise write landed in frozen partition: %v", got)
	}
}

// The watch-aware wakeup optimisation skips the broadcast when no watch is
// registered. A WaitUntil that races writer traffic
// must still never lose its wakeup: the waiter registers its watch before
// re-evaluating the predicate, so a write either sees the watch (and
// broadcasts) or happened before registration (and the predicate sees its
// bytes). Run with -race; a lost wakeup leaves every PE asleep, which poisons
// the world with the deadlock report and fails the test.
func TestWatchAwareWakeupNeverLost(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		delayW := time.Duration(rng.Intn(200)) * time.Microsecond
		err := Run(fabric.Stampede(), 2, func(p *PE) {
			if p.ID == 0 {
				// Unwatched traffic first: these writes must not wake or
				// deadlock anything.
				for i := 0; i < 8; i++ {
					p.world.Write(1, 128+int64(i)*8, []byte{1, 2, 3, 4, 5, 6, 7, 8}, float64(i))
				}
				time.Sleep(delayW)
				p.world.WriteUint64(1, 0, 1, 42)
			} else {
				ts := p.WaitUntil64(0, func(v uint64) bool { return v == 1 })
				if ts != 42 {
					panic("waiter adopted wrong timestamp")
				}
			}
		})
		if err != nil {
			t.Fatalf("round %d (writer delay %v): %v", round, delayW, err)
		}
	}
}

// flatModel is the dense oracle of a partition: its bytes and one timestamp
// per 8-byte word, max-merged for writes of at most tsTrackMaxBytes.
type flatModel struct {
	data []byte
	ts   []float64
}

func (m *flatModel) write(off int64, data []byte, ts float64) {
	copy(m.data[off:], data)
	if len(data) == 0 || len(data) > tsTrackMaxBytes {
		return
	}
	for w := off >> 3; w <= (off+int64(len(data))-1)>>3; w++ {
		m.ts[w] = max(m.ts[w], ts)
	}
}

// TestVectoredWritesMatchWriteSequence is the differential test of the write
// cursor: WriteV and WriteRuns must leave the bytes and the per-word
// timestamps of the equivalent sequence of Write calls — and both those of a
// flat model — for elements that straddle pages, strides below the element
// size (0 included), overlapping runs, elements too large to be tracked,
// pieces of zeros among non-zero ones, and partitions built on recycled pages
// whose last owner dirtied part of them.
func TestVectoredWritesMatchWriteSequence(t *testing.T) {
	const extent = 3*segPageSize + 64
	type piece struct {
		off int64
		n   int
	}
	cases := []struct {
		name   string
		v      bool  // one WriteV (pieces evenly strided) or one WriteRuns
		off    int64 // of the first piece
		stride int64
		es, n  int
		offs   []int64 // WriteRuns: piece offsets from off
		zeros  []int   // pieces whose payload is all zero
	}{
		{name: "words across a page boundary", v: true, off: segPageSize - 20, stride: 8, es: 8, n: 6},
		{name: "4-byte elements at an odd stride across two boundaries", v: true, off: segPageSize - 6, stride: 4098, es: 4, n: 5},
		{name: "element straddles the page", v: true, off: segPageSize - 3, stride: 16, es: 8, n: 3},
		{name: "stride below the element", v: true, off: 100, stride: 3, es: 8, n: 40},
		{name: "stride zero", v: true, off: 2*segPageSize - 4, stride: 0, es: 8, n: 7},
		{name: "tracked limit", v: true, off: segPageSize - 512, stride: tsTrackMaxBytes, es: tsTrackMaxBytes, n: 3},
		{name: "past the tracked limit", v: true, off: segPageSize - 512, stride: 2000, es: tsTrackMaxBytes + 8, n: 3},
		{name: "a page and more per element", v: true, off: 24, stride: segPageSize + 8, es: int(segPageSize) + 8, n: 2},
		{name: "overlapping runs", off: 8, es: 24, offs: []int64{64, 72, 56, 64, segPageSize - 16, segPageSize - 28, 0}},
		{name: "runs in descending order across pages", off: 0, es: 4, offs: []int64{2*segPageSize + 2, 2*segPageSize - 2, segPageSize, segPageSize - 4, 4, 0}},
		{name: "untracked runs", off: 40, es: tsTrackMaxBytes + 1, offs: []int64{segPageSize, 0, 512}},
		{name: "untracked zero runs around one that crosses onto their page", off: 2 * segPageSize, es: 2000, offs: []int64{0, 14432, 13832}, zeros: []int{0, 2}},
		{name: "tracked zero runs around one that crosses onto their page", off: 8, es: 24, offs: []int64{0, segPageSize - 16, 64, segPageSize + 8}, zeros: []int{0, 2, 3}},
		{name: "zero elements among non-zero ones", v: true, off: segPageSize - 3000, stride: 1500, es: 2000, n: 4, zeros: []int{0, 2}},
	}
	rng := rand.New(rand.NewSource(16))
	for _, recycled := range []bool{false, true} {
		for _, tc := range cases {
			// The free lists are LIFO: the worlds' first pages are these,
			// stale over [96, segPageSize-8) with +Inf in every stamp.
			if recycled {
				PreloadDirtyPages(8, 96, segPageSize-8)
			}
			wv, we := twoWorlds(t)
			model := flatModel{data: make([]byte, extent), ts: make([]float64, extent/8)}
			// Something to overwrite and max-merge against.
			seed := make([]byte, 200)
			rng.Read(seed)
			for _, w := range []*World{wv, we} {
				w.Write(1, segPageSize-100, seed, 500)
			}
			model.write(segPageSize-100, seed, 500)

			var pieces []piece
			offs := tc.offs
			if tc.v {
				offs = make([]int64, tc.n)
				for k := range offs {
					offs[k] = int64(k) * tc.stride
				}
			}
			for _, o := range offs {
				pieces = append(pieces, piece{tc.off + o, tc.es})
			}
			src := make([]byte, len(pieces)*tc.es)
			rng.Read(src)
			for _, i := range tc.zeros {
				clear(src[i*tc.es : (i+1)*tc.es])
			}
			visAt := make([]float64, len(pieces))
			for i := range visAt {
				visAt[i] = float64(rng.Intn(1000))
				if tc.v {
					visAt[i] = 700
				}
			}
			if tc.v {
				wv.WriteV(1, tc.off, tc.stride, tc.es, src, 700)
			} else {
				wv.WriteRuns(1, tc.off, offs, tc.es, src, visAt)
			}
			for i, pc := range pieces {
				we.Write(1, pc.off, src[i*tc.es:(i+1)*tc.es], visAt[i])
				model.write(pc.off, src[i*tc.es:(i+1)*tc.es], visAt[i])
			}

			name := tc.name
			if recycled {
				name += ", on recycled pages"
			}
			comparePartitions(t, wv, we, 1, extent)
			got := make([]byte, extent)
			wv.Read(1, 0, got)
			if !bytes.Equal(got, model.data) {
				t.Errorf("%s: bytes differ from the flat model", name)
			}
			for w, want := range model.ts {
				if ts := wv.pes[1].rangeTs(int64(w)*8, 8); ts != want {
					t.Fatalf("%s: word %d has timestamp %v, flat model %v", name, w, ts, want)
				}
			}
			if s := wv.PageStats(); recycled && s.FreshBytes >= int64(s.SegPages)*segPageSize {
				t.Errorf("%s: no recycled page was used (%v)", name, s)
			}
			wv.Close()
			we.Close()
		}
	}
}

// A write below offset 0 is a range error with a message, like a read there,
// checked once per call whatever the number of pieces.
func TestWriteNegativeOffsetPanics(t *testing.T) {
	w, err := NewWorld(fabric.Stampede(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	data := make([]byte, 16)
	for what, f := range map[string]func(){
		"Write":     func() { w.Write(0, -8, data, 1) },
		"WriteV":    func() { w.WriteV(0, -8, 8, 8, data, 1) },
		"WriteRuns": func() { w.WriteRuns(0, 8, []int64{0, -24}, 8, data, []float64{1, 1}) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "pgas: ") || !strings.HasSuffix(msg, "out of range") {
					t.Errorf("%s below offset 0: recovered %q, want a pgas range panic", what, msg)
				}
			}()
			f()
		}()
	}
	if s := w.PageStats(); s.SegPages != 0 {
		t.Errorf("a refused write materialised memory: %v", s)
	}
}
