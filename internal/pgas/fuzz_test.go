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
// slice order) is a substrate bug. Every case starts with the free lists
// pre-loaded with pages full of 0xFF and +Inf, so the pages the store
// materialises are recycled ones, and the span writes (op 5) start and end at
// arbitrary in-page offsets, page boundaries included: whatever a write does
// not cover must read as zero although the page it landed on was dirty. Op 8
// stores a span of zeros, which on a page never materialised stores nothing
// and elsewhere must land like any other span; op 9 stores small and vectored
// pieces of zeros from the zero source (Write, WriteV, WriteRuns), which onto
// a page without bytes record timestamps and store none. A page's first
// non-zero store inside one 4 KiB granule takes a window over it, poisoned
// like a full page, and a later one outside widens the page; each dense read
// (op 1) also checks the store's view of its range, which aliases a window or
// gathers across its edge. Op 7
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
	// Zero spans: two pages onto fresh pages; one onto a page a four-byte
	// write took from the dirty free list and a fresh one beyond it; one over
	// written pages; and 32 bytes across the page-0/1 boundary, over written
	// pages and over fresh ones — each followed by a read of the whole model.
	f.Add([]byte{8, 0, 0, 0, 0, 0x80, 0x00, 6, 0, 0, 0, 0, 0xC1, 0x01})
	f.Add([]byte{0, 0x00, 0x10, 4, 1, 8, 0, 0, 0, 0, 0x80, 0x00, 6, 0, 0, 0, 0, 0xC1, 0x01})
	f.Add([]byte{5, 0, 0, 0, 0, 0xC0, 0x00, 3, 8, 0, 0x20, 0x00, 0, 0x40, 0x00, 6, 0, 0, 0, 0, 0xC1, 0x01})
	f.Add([]byte{5, 0, 0, 0, 0, 0xC0, 0x00, 3, 8, 0, 0x3F, 0xF0, 0, 0x00, 0x20, 6, 0, 0x3F, 0x00, 0, 0x02, 0x00})
	f.Add([]byte{8, 0, 0x3F, 0xF0, 0, 0x00, 0x20, 6, 0, 0, 0, 0, 0xC1, 0x01})
	// Small and vectored zero pieces: sixteen 8-byte elements of a WriteV
	// onto a fresh page; eight 4-byte runs of a WriteRuns across the
	// page-0/1 boundary over written bytes; an 8-byte zero store and a
	// non-zero byte onto the same fresh page; and an 8-byte zero store across
	// the page-0/1 boundary — each followed by a read of the whole model.
	f.Add([]byte{9, 0x00, 0x20, 0x00, 125, 24, 6, 0, 0, 0, 0, 0xC1, 0x01})
	f.Add([]byte{5, 0, 0, 0, 0, 0xC0, 0x00, 3, 9, 0x00, 0x3F, 0xF0, 58, 8, 6, 0, 0, 0, 0, 0xC1, 0x01})
	f.Add([]byte{9, 0x00, 0x10, 0x00, 4, 0, 0, 0x10, 0x04, 1, 0xAB, 6, 0, 0, 0, 0, 0xC1, 0x01})
	f.Add([]byte{9, 0x00, 0x3F, 0xFC, 4, 0, 6, 0, 0, 0, 0, 0xC1, 0x01})
	// Zero runs of a WriteRuns past the tracked limit: one onto page 0,
	// then a non-zero one across the page-0/1 boundary, then a zero one back
	// on page 0 over the bytes the second stored — followed by a read of the
	// whole model.
	f.Add([]byte{2, 0x00, 0x00, 0x82, 62, 0x00, 0x00, 0x3A, 0x98, 0x38, 0x30, 6, 0, 0, 0, 0, 0xC1, 0x01})
	// Windows, each followed by a read of the whole model: a first store in
	// granule 2 of page 0, then one in granule 0, which widens the page; a
	// window over granule 1 read across its lower edge, cleared across its
	// upper one and read across that; a window over granule 2 with a span of
	// zeros across its lower edge and an 8-byte zero store in granule 0,
	// neither of which widens it; and a window dirtied at granule 3, recycled
	// and taken by a store in granule 1.
	f.Add([]byte{0, 0x20, 0x10, 16, 3, 0, 0x00, 0x40, 8, 9, 6, 0, 0, 0, 0, 0xC1, 0x01})
	f.Add([]byte{5, 0x00, 0x10, 0x00, 0x00, 0x10, 0x00, 7, 1, 0x0F, 0xF0, 32,
		4, 0x00, 0x1F, 0xF0, 0x00, 0x00, 0x20, 1, 0x1F, 0xE0, 64, 6, 0, 0, 0, 0, 0xC1, 0x01})
	f.Add([]byte{0, 0x20, 0x10, 16, 3, 8, 0x00, 0x1F, 0xF8, 0x00, 0x00, 0x20, 9, 0x00, 0x00, 0x40, 4, 0,
		1, 0x1F, 0xF0, 64, 6, 0, 0, 0, 0, 0xC1, 0x01})
	f.Add([]byte{0, 0x30, 0x64, 64, 5, 7, 0, 0x17, 0xD0, 8, 1, 1, 0x17, 0xC0, 255, 6, 0, 0, 0, 0, 0xC1, 0x01})
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
			if !ZeroSourceReadsZero(modelLen) {
				t.Fatalf("the zero source no longer reads zero")
			}
		}()

		step := 0
		for {
			op, ok := next()
			if !ok {
				return
			}
			step++
			switch op % 10 {
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
				if ln > 0 {
					for i := range got {
						got[i] = 0xEE
					}
					p := &w.pes[0]
					p.mu.Lock()
					v := bytes.Equal(p.seg.view(int64(off), int64(ln), got), model[off:off+ln])
					p.mu.Unlock()
					if !v {
						t.Fatalf("step %d: view(%d, %d) diverges from flat reference", step, off, ln)
					}
				}
			case 2: // vectored write: nRuns runs of runBytes, slice order wins
				base, ok1 := next16(modelLen / 2)
				nr, ok2 := next()
				rbRaw, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				// nr's top bit: every other run, the first included, is all
				// zeros, and runs grow 32-fold, past the tracked limit.
				zeroRuns, scale := nr&0x80 != 0, 1
				if zeroRuns {
					scale = 32
				}
				nRuns := int(nr&0x7F)%6 + 1
				runBytes := int(rbRaw)*scale%(modelLen/2/nRuns) + 1
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
					switch {
					case !zeroRuns:
						src[i] = byte(step*17 + i*13)
					case i/runBytes%2 == 1:
						src[i] = byte(step*17+i*13) | 1 // never zero: a skipped byte shows
					}
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
			case 8: // zero span: any start, any end, over whatever is there
				off, ok1 := next24(modelLen)
				ln, ok2 := next24(modelLen + 1)
				if !ok1 || !ok2 {
					return
				}
				ln = min(ln, modelLen-off)
				w.Write(0, int64(off), make([]byte, ln), 0)
				clear(model[off : off+ln])
			case 9: // small and vectored zero pieces from the zero source
				off, ok1 := next24(modelLen)
				shape, ok2 := next()
				stride, ok3 := next()
				if !ok1 || !ok2 || !ok3 {
					return
				}
				// shape: bits 0-1 the call (Write, WriteV, WriteRuns, Write),
				// bit 2 the piece size (4 or 8 bytes), bits 3-6 the pieces
				// less one; stride in words.
				es := 4 << (shape >> 2 & 1)
				nel, st := int(shape>>3)%16+1, int(stride)*4
				off = min(off, modelLen-es)
				for nel > 1 && off+(nel-1)*st+es > modelLen {
					nel--
				}
				switch shape & 3 % 3 {
				case 0:
					nel = 1
					w.Write(0, int64(off), Zeros(es), 0)
				case 1:
					w.WriteV(0, int64(off), int64(st), es, Zeros(nel*es), 0)
				case 2:
					offs := make([]int64, nel)
					for i := range offs {
						offs[i] = int64(i * st)
					}
					w.WriteRuns(0, int64(off), offs, es, Zeros(nel*es), make([]float64, nel))
				}
				for i := 0; i < nel; i++ {
					clear(model[off+i*st : off+i*st+es])
				}
			}
		}
	})
}

// FuzzTsIndex is FuzzSegStore's twin for the timestamp index: dense range
// records, single-word records, sparse single-word records and range queries
// over a few granules of two pages, mirrored against one float64 per word.
// Every free list is pre-loaded with poison — packed records whose mask
// claims words all over their granule, dense blocks, both at +Inf — so a
// recycled packed record whose mask was not reset, or a recycled dense block
// not cleared whole, would stick at +Inf under the index's max-merge. Op 4
// records 1-80 single words of one granule in a scattered order, so a run
// crosses the packed layout's cap and the granule turns dense mid-run, and op
// 3 releases the store and carries on with the parts it recorded on. Op 5
// forgets a word-aligned range, as the heap's Free does: whole and partial
// granules, packed and dense, and overlay words, which must then read 0. The
// closing sweep checks every word, so a never-recorded word must read 0 and a
// stamp must survive every move — sparse to packed, packed to dense, a later
// packed stamp shifting up or, after a forget, down — exactly.
func FuzzTsIndex(f *testing.F) {
	f.Add([]byte{0, 0x00, 0x00, 0, 8, 5, 2, 0x00, 0x00, 0, 16})
	f.Add([]byte{1, 0x10, 0x08, 9, 0, 0x10, 0x00, 0, 64, 3, 2, 0x10, 0x00, 1, 0})    // sparse, then dense over it
	f.Add([]byte{0, 0x0F, 0xF8, 0, 16, 7, 1, 0x2F, 0xF0, 4, 2, 0x0F, 0xF0, 0x20, 0}) // straddles granules 0/1
	// Recycled parts: granules 1 and 3 of page 0 and a sparse word are
	// recorded, the store is released, and the next life records on granule 0,
	// across the page-0/1 boundary, and asks for all.
	f.Add([]byte{0, 0x10, 0x00, 0, 64, 9, 0, 0x30, 0x08, 0, 8, 7, 1, 0x20, 0x10, 5, 3, 0, 0,
		0, 0x00, 0x10, 0, 8, 4, 0, 0x3F, 0xF0, 0, 40, 6, 1, 0x20, 0x10, 2, 2, 0x00, 0x00, 0x50, 0x17})
	// Promotion at the 65th word: 64 scattered words of granule 0 fill its
	// packed record (word 1 upwards in steps of 151), a query reads the granule
	// packed, and word 0 — a new first stamp — turns it dense.
	f.Add([]byte{4, 0x00, 0x08, 63, 75, 9, 2, 0x00, 0x00, 0x0F, 0xFF, 4, 0x00, 0x00, 0, 0, 11, 2, 0x00, 0x00, 0x0F, 0xFF})
	// A packed record recycled across release: five words of granule 1 at
	// stamp 200, release, and five other words of granule 1 take the same
	// record back; the first life's words must read 0.
	f.Add([]byte{4, 0x10, 0x00, 4, 10, 200, 3, 0, 0, 4, 0x10, 0x08, 4, 10, 3, 2, 0x10, 0x00, 0x0F, 0xFF})
	// An overlay word on a packed granule: a sparse word on granule 2 before
	// it is in use, eight words recorded there (the overlay word migrates into
	// the packed record), another sparse word now recorded in it, and 60 more
	// words that crowd the granule dense.
	f.Add([]byte{1, 0x20, 0x18, 50, 4, 0x20, 0x00, 7, 1, 30, 1, 0x21, 0x00, 40,
		2, 0x20, 0x00, 0x0F, 0xFF, 4, 0x20, 0x40, 59, 5, 20, 2, 0x20, 0x00, 0x0F, 0xFF})
	// The one-word path: an insert below two stamps, then a hit on the one
	// that shifted up; words 0 and 511; words 64 then 63, across a mask word,
	// and a hit on 64 after; 63 scattered words of granule 0, then word 0 (the
	// 64th, which still fits) and word 2 (the 65th, which turns it dense).
	f.Add([]byte{4, 0x03, 0x20, 0, 0, 50, 4, 0x03, 0x40, 0, 0, 55, 4, 0x00, 0x50, 0, 0, 30, 4, 0x03, 0x20, 0, 0, 90, 2, 0x00, 0x00, 0x0F, 0xFF})
	f.Add([]byte{4, 0x0F, 0xF8, 0, 0, 9, 4, 0x00, 0x00, 0, 0, 5, 4, 0x0F, 0xF8, 0, 0, 3, 2, 0x00, 0x00, 0x0F, 0xFF})
	f.Add([]byte{4, 0x02, 0x00, 0, 0, 40, 4, 0x01, 0xF8, 0, 0, 20, 2, 0x02, 0x00, 0, 7, 4, 0x02, 0x00, 0, 0, 60, 2, 0x01, 0xF8, 0, 15})
	f.Add([]byte{4, 0x00, 0x08, 62, 75, 9, 4, 0x00, 0x00, 0, 0, 11, 2, 0x00, 0x00, 0x0F, 0xFF, 4, 0x00, 0x10, 0, 0, 13, 2, 0x00, 0x00, 0x0F, 0xFF})
	// Forgets: granule 1 dense, four words of granule 0 packed, an overlay
	// word on granule 3 and eight words of granule 4, then a forget from
	// granule 0's middle into granule 3, which frees granule 1 whole and
	// takes the overlay word. Then a forget inside a dense granule, one of
	// two of ten packed words, and an insert among what is left.
	f.Add([]byte{0, 0x10, 0x00, 0x03, 0xFF, 20, 4, 0x00, 0x40, 3, 5, 30, 1, 0x30, 0x10, 40, 0, 0x40, 0x00, 0, 63, 50,
		5, 0x08, 0x00, 0x2A, 0x00, 2, 0x00, 0x00, 0x4F, 0xFF})
	f.Add([]byte{0, 0x10, 0x00, 0x03, 0xFF, 20, 5, 0x11, 0x00, 0x00, 0x38, 4, 0x00, 0x40, 9, 5, 30,
		5, 0x00, 0x98, 0x00, 0x58, 2, 0x00, 0x00, 0x1F, 0xFF, 4, 0x00, 0x60, 0, 0, 70})
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
			switch op % 6 {
			case 3: // release: the next record finds this life's parts recycled
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
			case 4: // 1-80 single words of off's granule, from off's word at an odd stride
				cnt, ok2 := next()
				stride, ok3 := next()
				ts, ok4 := next()
				if !ok1 || !ok2 || !ok3 || !ok4 {
					return
				}
				w0 := off >> 3
				first := w0 &^ tsBlockMask
				gw := min(tsBlockWords, words-first)
				for i := 0; i <= cnt%80; i++ {
					w := first + (w0-first+i*(2*stride+1))%gw
					v := float64((ts + i*37) % 256)
					pn, i := int64(w>>tsPageShift), int64(w&tsBlockMask)
					ix.raise(ix.page(pn), pn, int64(w&tsPageMask>>tsBlockShift), i, i, v)
					ref[w] = math.Max(ref[w], v)
				}
			case 5: // forget the words of a word-aligned range
				n, ok2 := next16(span)
				if !ok1 || !ok2 {
					return
				}
				off &^= 7
				n = min(n&^7+8, span-off)
				ix.forget(int64(off), int64(n))
				clear(ref[off>>3 : (off+n)>>3])
			}
		}
		for w := 0; w < words; w++ {
			check(-1, w*8, 8)
		}
	})
}
