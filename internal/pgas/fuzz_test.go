package pgas

import (
	"bytes"
	"math"
	"testing"

	"cafshmem/internal/fabric"
)

// FuzzSegStore drives the one-sided memory substrate — dense Write/Read,
// Touch and the heap's clear, and the vectored WriteRuns/ReadRuns paths, all backed by the
// paged segment store — with a fuzz-decoded op program, mirroring every write
// against a flat zero-initialised reference array. Any divergence between a
// paged read and the dense reference (page-boundary straddles, reads of
// unmaterialised pages, reads past the extent, overlapping runs resolving in
// slice order) is a substrate bug. Every case starts with the page pool
// pre-loaded with pages full of 0xFF and +Inf, so the pages the store
// materialises are recycled ones, and the span writes (op 5) start and end at
// arbitrary in-page offsets, page boundaries included: whatever a write does
// not cover must read as zero although the page it landed on was dirty. Op 7
// closes the world and carries on in a new one, whose pages are the ones the
// program itself dirtied, each over the range it happened to write. The
// program decoder is total: every byte string decodes to a valid op sequence,
// so the fuzzer explores state, not the decoder's error paths.
func FuzzSegStore(f *testing.F) {
	// Seeds: a page-straddling write, a run batch with overlapping runs, reads
	// of never-written ranges, and a longer mixed program.
	f.Add([]byte{0, 0xFF, 0xFF, 200, 7})
	f.Add([]byte{2, 0x80, 0x00, 3, 16, 0, 0, 0, 4, 0, 8, 3, 0x80, 0x00, 17})
	f.Add([]byte{1, 0x12, 0x34, 100, 0, 0x00, 0x01, 50})
	f.Add([]byte{
		0, 0x00, 0x01, 40, 9, // write near page 0 start
		0, 0xFF, 0xFF, 255, 1, // straddle the page-1 boundary
		1, 0xFE, 0xFF, 64, // read back across it
		2, 0x00, 0x00, 5, 32, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, // dense run batch
		3, 0x00, 0x00, 33, // gather it back
		4, 0x00, 0x10, 0x00, 0x00, 0x00, 0x40, // touch and clear
		1, 0x00, 0x00, 200,
	})
	// Span writes into recycled pages: exactly page 1, two bytes across the
	// page-0/1 boundary, one byte short of a page end, the whole model — each
	// read back together with its never-written surroundings.
	f.Add([]byte{5, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 3, 6, 0x00, 0xFF, 0x00, 0x01, 0x02, 0x00})
	f.Add([]byte{5, 0x00, 0xFF, 0xFF, 0x00, 0x00, 0x02, 9, 6, 0x00, 0x00, 0x00, 0x03, 0x01, 0x01})
	f.Add([]byte{5, 0x01, 0x80, 0x00, 0x00, 0x7F, 0xFF, 1, 6, 0x01, 0x00, 0x00, 0x01, 0x00, 0x01})
	f.Add([]byte{5, 0x00, 0x00, 0x00, 0x03, 0x01, 0x00, 2, 6, 0x00, 0x00, 0x00, 0x03, 0x01, 0x01})
	// Recycled pages with a partial dirty range: every life
	// writes bytes [256, 768) of page 0, reads two pages back and recycles the
	// world, and each opens with a first write placed differently against the
	// range the page arrives with — below it, inside it, across its end, above
	// it, over all of it, and as runs of one WriteRuns, one of them across the
	// page-0/1 boundary.
	var recycled []byte
	for _, first := range [][]byte{
		nil,
		{0, 0x00, 0x10, 4, 1},
		{0, 0x01, 0x80, 8, 2},
		{0, 0x02, 0xFC, 8, 3},
		{0, 0x04, 0x00, 8, 4},
		{5, 0, 0, 0, 0, 8, 0, 5},
		{2, 0, 0, 3, 3, 0x04, 0x00, 0x00, 0x00, 0x3F, 0xFE, 0x01, 0x00},
	} {
		recycled = append(recycled, first...)
		recycled = append(recycled, 5, 0, 1, 0, 0, 2, 0, 7, 6, 0, 0, 0, 0, 0x80, 0x10, 7)
	}
	f.Add(recycled)
	f.Fuzz(func(t *testing.T, program []byte) {
		// > 3 pages plus a ragged tail, so offsets hit page boundaries and the
		// store's extent never covers the whole model.
		const modelLen = 3*int(segPageSize) + 257
		model := make([]byte, modelLen)
		PreloadDirtyPages(4, 0, segPageSize)
		w, err := NewWorld(fabric.Stampede(), 1)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { w.Close() }() // the next case recycles this one's pages, contents and all

		cur := 0
		next := func() (byte, bool) {
			if cur >= len(program) {
				return 0, false
			}
			b := program[cur]
			cur++
			return b, true
		}
		// next16 decodes a bounded non-negative int from two program bytes.
		next16 := func(bound int) (int, bool) {
			hi, ok1 := next()
			lo, ok2 := next()
			if !ok1 || !ok2 {
				return 0, false
			}
			return (int(hi)<<8 | int(lo)) % bound, true
		}

		// next24 is next16 over three bytes: any offset of the model.
		next24 := func(bound int) (int, bool) {
			hi, ok1 := next()
			lo, ok2 := next16(1 << 16)
			if !ok1 || !ok2 {
				return 0, false
			}
			return (int(hi)<<16 | lo) % bound, true
		}

		// However the program ends, the closing sweep grows the extent over
		// the whole model with a one-byte write — dirt a recycled page kept
		// beyond the extent of its day would surface now — and compares
		// every byte.
		defer func() {
			w.Write(0, int64(modelLen-1), []byte{0x5A}, 0)
			model[modelLen-1] = 0x5A
			got := make([]byte, modelLen)
			w.Read(0, 0, got)
			if !bytes.Equal(got, model) {
				t.Fatalf("closing sweep diverges from flat reference")
			}
		}()

		step := 0
		for {
			op, ok := next()
			if !ok {
				return
			}
			step++
			switch op % 8 {
			case 7: // recycle: the same memory, a new world
				w.Close()
				if w, err = NewWorld(fabric.Stampede(), 1); err != nil {
					t.Fatal(err)
				}
				clear(model)
			case 0: // dense write
				off, ok1 := next16(modelLen)
				n, ok2 := next()
				pat, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				ln := int(n)
				if off+ln > modelLen {
					ln = modelLen - off
				}
				data := make([]byte, ln)
				for i := range data {
					data[i] = pat + byte(i*31)
				}
				w.Write(0, int64(off), data, 0)
				copy(model[off:], data)
			case 1: // dense read, compared against the reference
				off, ok1 := next16(modelLen)
				n, ok2 := next()
				if !ok1 || !ok2 {
					return
				}
				ln := int(n)
				if off+ln > modelLen {
					ln = modelLen - off
				}
				got := make([]byte, ln)
				for i := range got {
					got[i] = 0xEE // stale canary the read must overwrite
				}
				w.Read(0, int64(off), got)
				if !bytes.Equal(got, model[off:off+ln]) {
					t.Fatalf("step %d: Read(%d, %d) diverges from flat reference", step, off, ln)
				}
			case 2: // vectored write: nRuns runs of runBytes, slice order wins
				base, ok1 := next16(modelLen / 2)
				nr, ok2 := next()
				rbRaw, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				nRuns := int(nr)%6 + 1
				runBytes := int(rbRaw)%(modelLen/2/nRuns) + 1
				offs := make([]int64, nRuns)
				for i := range offs {
					o, ok := next16(modelLen - base - runBytes + 1)
					if !ok {
						return
					}
					offs[i] = int64(o)
				}
				src := make([]byte, nRuns*runBytes)
				for i := range src {
					src[i] = byte(step*17 + i*13)
				}
				visAt := make([]float64, nRuns)
				w.WriteRuns(0, int64(base), offs, runBytes, src, visAt)
				for i, o := range offs {
					copy(model[base+int(o):], src[i*runBytes:(i+1)*runBytes])
				}
			case 3: // vectored gather, compared against the reference
				base, ok1 := next16(modelLen / 2)
				nr, ok2 := next()
				rbRaw, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				nRuns := int(nr)%6 + 1
				runBytes := int(rbRaw)%(modelLen/2/nRuns) + 1
				offs := make([]int64, nRuns)
				for i := range offs {
					o, ok := next16(modelLen - base - runBytes + 1)
					if !ok {
						return
					}
					offs[i] = int64(o)
				}
				dst := make([]byte, nRuns*runBytes)
				w.ReadRuns(0, int64(base), offs, runBytes, dst)
				for i, o := range offs {
					want := model[base+int(o) : base+int(o)+runBytes]
					if !bytes.Equal(dst[i*runBytes:(i+1)*runBytes], want) {
						t.Fatalf("step %d: ReadRuns run %d at %d diverges from flat reference", step, i, base+int(o))
					}
				}
			case 4: // touch, then the heap's clear: any range, whole pages included
				off, ok1 := next24(modelLen)
				ln, ok2 := next24(modelLen + 1)
				if !ok1 || !ok2 {
					return
				}
				ln = min(ln, modelLen-off)
				// Touch stores nothing; the clear zeroes what the range holds
				// and, like Touch, materialises and grows nothing.
				w.Touch(0, int64(off), 0)
				p := &w.pes[0]
				p.mu.Lock()
				p.seg.clearRange(int64(off), int64(ln))
				p.mu.Unlock()
				clear(model[off : off+ln])
			case 5: // span write: any start, any end, whole pages included
				off, ok1 := next24(modelLen)
				ln, ok2 := next24(modelLen + 1)
				pat, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				ln = min(ln, modelLen-off)
				data := make([]byte, ln)
				for i := range data {
					data[i] = pat + byte(i*29) | 1 // never zero: a lost byte shows
				}
				w.Write(0, int64(off), data, 0)
				copy(model[off:], data)
			case 6: // span read, compared against the reference
				off, ok1 := next24(modelLen)
				ln, ok2 := next24(modelLen + 1)
				if !ok1 || !ok2 {
					return
				}
				ln = min(ln, modelLen-off)
				got := make([]byte, ln)
				w.Read(0, int64(off), got)
				if !bytes.Equal(got, model[off:off+ln]) {
					t.Fatalf("step %d: span Read(%d, %d) diverges from flat reference", step, off, ln)
				}
			}
		}
	})
}

// FuzzTsIndex is FuzzSegStore's twin for the timestamp index: dense range
// records, sparse single-word records and range queries over a few granules
// of two pages, mirrored against one float64 per word. The pool is pre-loaded
// with pages whose blocks hold +Inf, so a recycled block that was not cleared
// whole would stick at +Inf under the index's max-merge, and op 3 releases
// the store and carries on with the pages it recorded on; the closing sweep
// checks every word, so a never-recorded word must read 0 and a sparse record
// must survive its migration into a dense block exactly.
func FuzzTsIndex(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x00, 0, 8, 5, 2, 0x00, 0x00, 0, 16})
	f.Add([]byte{1, 0x10, 0x08, 9, 0, 0x10, 0x00, 0, 64, 3, 2, 0x10, 0x00, 1, 0})    // sparse, then dense over it
	f.Add([]byte{0, 0x0F, 0xF8, 0, 16, 7, 1, 0x2F, 0xF0, 4, 2, 0x0F, 0xF0, 0x20, 0}) // straddles granules 0/1
	// Recycled blocks: granules 1 and 3 of page 0 and a sparse word are
	// recorded, the store is released, and the next life records on granule 0
	// (a spare block moves), across the page-0/1 boundary, and asks for all.
	f.Add([]byte{0, 0x10, 0x00, 0, 64, 9, 0, 0x30, 0x08, 0, 8, 7, 1, 0x20, 0x10, 5, 3, 0, 0,
		0, 0x00, 0x10, 0, 8, 4, 0, 0x3F, 0xF0, 0, 40, 6, 1, 0x20, 0x10, 2, 2, 0x00, 0x00, 0x50, 0x17})
	f.Fuzz(func(t *testing.T, program []byte) {
		const words = 5*tsBlockWords + 3
		const span = words * 8
		ref := make([]float64, words)
		PreloadDirtyPages(3, 0, segPageSize)
		var ix segStore
		defer func() { ix.release() }()

		cur := 0
		next := func() (int, bool) {
			if cur >= len(program) {
				return 0, false
			}
			cur++
			return int(program[cur-1]), true
		}
		next16 := func(bound int) (int, bool) {
			hi, ok1 := next()
			lo, ok2 := next()
			return (hi<<8 | lo) % bound, ok1 && ok2
		}
		check := func(step, off, n int) {
			want := 0.0
			for w := off >> 3; w <= (off+n-1)>>3; w++ {
				want = math.Max(want, ref[w])
			}
			if got := ix.maxRange(int64(off), int64(n)); got != want {
				t.Fatalf("step %d: maxRange(%d, %d) = %v, reference %v", step, off, n, got, want)
			}
		}
		for step := 1; ; step++ {
			op, ok := next()
			if !ok {
				break
			}
			off, ok1 := next16(span)
			switch op % 4 {
			case 3: // release: the next record finds this life's pages recycled
				ix.release()
				clear(ref)
			case 0: // dense record over [off, off+n)
				n, ok2 := next16(tsTrackMaxBytes)
				ts, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				n = min(n+1, span-off)
				ix.recordRange(int64(off), int64(n), float64(ts))
				for w := off >> 3; w <= (off+n-1)>>3; w++ {
					ref[w] = math.Max(ref[w], float64(ts))
				}
			case 1: // sparse record of the word covering off
				ts, ok2 := next()
				if !ok1 || !ok2 {
					return
				}
				ix.recordWordSparse(int64(off), float64(ts))
				ref[off>>3] = math.Max(ref[off>>3], float64(ts))
			case 2: // range query
				n, ok2 := next16(span)
				if !ok1 || !ok2 {
					return
				}
				check(step, off, min(n+1, span-off))
			}
		}
		for w := 0; w < words; w++ {
			check(-1, w*8, 8)
		}
	})
}
