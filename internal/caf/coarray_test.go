package caf

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// shmemOpts is the default test configuration: UHCAF over MVAPICH2-X SHMEM.
func shmemOpts() Options { return UHCAFOverMV2XSHMEM() }

func gasnetOpts() Options {
	return UHCAFOverGASNet(fabric.Stampede(), fabric.ProfGASNetIBV)
}

func crayOpts() Options { return UHCAFOverCraySHMEM(fabric.CrayXC30()) }

func mpi3Opts() Options { return UHCAFOverMV2XMPI3() }

func forEachTransport(t *testing.T, images int, body func(*Image)) {
	t.Helper()
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"shmem", shmemOpts()},
		{"gasnet", gasnetOpts()},
		{"mpi3", mpi3Opts()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := Run(images, tc.opts, body); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunIntrinsics(t *testing.T) {
	forEachTransport(t, 5, func(img *Image) {
		if img.NumImages() != 5 {
			panic("num_images wrong")
		}
		if img.ThisImage() < 1 || img.ThisImage() > 5 {
			panic("this_image out of 1-based range")
		}
	})
}

func TestRunOptionValidation(t *testing.T) {
	if err := Run(2, Options{}, func(*Image) {}); err == nil {
		t.Fatal("missing machine must fail")
	}
	if err := Run(2, Options{Machine: fabric.Stampede()}, func(*Image) {}); err == nil {
		t.Fatal("missing profile must fail")
	}
	bad := shmemOpts()
	bad.Profile = "nope"
	if err := Run(2, bad, func(*Image) {}); err == nil {
		t.Fatal("unknown profile must fail")
	}
}

// TestTransportSelection pins Options.Transport behaviour: the zero value is
// the OpenSHMEM transport, an out-of-range kind is rejected with
// errBadTransport (not a panic), and ParseTransport round-trips every name.
func TestTransportSelection(t *testing.T) {
	var zero TransportKind
	if zero != TransportSHMEM || zero.String() != "shmem" {
		t.Fatalf("zero TransportKind = %v (%q), want shmem", zero, zero.String())
	}
	ran := false
	opts := shmemOpts()
	opts.Transport = 0 // explicit zero value: must select shmem and run
	if err := Run(1, opts, func(img *Image) {
		ran = true
		if got := img.Transport().Name(); got != "shmem/"+fabric.ProfMV2XSHMEM {
			t.Errorf("zero-value transport resolved to %q", got)
		}
	}); err != nil || !ran {
		t.Fatalf("zero-value transport run: err=%v ran=%v", err, ran)
	}

	bad := shmemOpts()
	bad.Transport = TransportKind(99)
	err := Run(1, bad, func(*Image) { t.Error("body must not run on a bad transport kind") })
	if err != errBadTransport {
		t.Fatalf("Transport=99: err=%v, want errBadTransport", err)
	}

	for _, tc := range []struct {
		name string
		want TransportKind
	}{
		{"shmem", TransportSHMEM},
		{"gasnet", TransportGASNet},
		{"mpi3", TransportMPI3},
	} {
		got, err := ParseTransport(tc.name)
		if err != nil || got != tc.want {
			t.Errorf("ParseTransport(%q) = %v, %v; want %v", tc.name, got, err, tc.want)
		}
		if got.String() != tc.name {
			t.Errorf("TransportKind(%v).String() = %q, want %q", got, got.String(), tc.name)
		}
	}
	if _, err := ParseTransport("dmapp"); err == nil {
		t.Error("ParseTransport must reject unknown names")
	}
}

func TestFig1Semantics(t *testing.T) {
	// The paper's Figure 1 program: coarray_x(4)[*], coarray_y(4)[*];
	// coarray_x = my_image; coarray_y = 0;
	// coarray_y(2) = coarray_x(3)[4]; coarray_x(1)[4] = coarray_y(2); sync all
	forEachTransport(t, 4, func(img *Image) {
		x := Allocate[int64](img, 4)
		y := Allocate[int64](img, 4)
		x.Fill(int64(img.ThisImage()))
		y.Fill(0)
		img.SyncAll()
		// 0-based subscripts in the Go API: Fortran element 2 is index 1, etc.
		y.Set(x.GetElem(4, 2), 1) // coarray_y(2) = coarray_x(3)[4]
		x.PutElem(4, y.At(1), 0)  // coarray_x(1)[4] = coarray_y(2)
		img.SyncAll()
		if y.At(1) != 4 {
			panic("get from image 4 should observe its initial value")
		}
		if img.ThisImage() == 4 && x.At(0) != 4 {
			panic("put back into image 4 lost")
		}
	})
}

func TestCoarrayLocalAccess(t *testing.T) {
	forEachTransport(t, 2, func(img *Image) {
		c := Allocate[float64](img, 3, 4)
		c.Set(2.5, 1, 2)
		if c.At(1, 2) != 2.5 {
			panic("local set/get failed")
		}
		if c.At(0, 0) != 0 {
			panic("fresh coarray not zeroed")
		}
		vals := make([]float64, 12)
		for i := range vals {
			vals[i] = float64(i)
		}
		c.SetSlice(vals)
		got := c.Slice()
		for i := range vals {
			if got[i] != vals[i] {
				panic("bulk local roundtrip failed")
			}
		}
		// Column-major: element (1,2) is at linear index 1 + 3*2 = 7.
		if c.At(1, 2) != 7 {
			panic("layout is not column-major")
		}
		img.SyncAll()
	})
}

func TestCoarrayBoundsChecks(t *testing.T) {
	err := Run(1, shmemOpts(), func(img *Image) {
		c := Allocate[int64](img, 3)
		c.At(3)
	})
	if err == nil {
		t.Fatal("out-of-bounds local access must panic")
	}
	err = Run(2, shmemOpts(), func(img *Image) {
		c := Allocate[int64](img, 3)
		c.GetElem(3, 0) // image 3 of 2
	})
	if err == nil {
		t.Fatal("out-of-range image index must panic")
	}
}

func TestPutGetElemRemote(t *testing.T) {
	forEachTransport(t, 3, func(img *Image) {
		c := Allocate[int32](img, 8)
		// Ring: everyone deposits its image number into the right neighbour.
		right := img.ThisImage()%img.NumImages() + 1
		c.PutElem(right, int32(img.ThisImage()), 5)
		img.SyncAll()
		left := (img.ThisImage()+img.NumImages()-2)%img.NumImages() + 1
		if c.At(5) != int32(left) {
			panic("ring put landed wrong")
		}
		if v := c.GetElem(right, 5); v != int32(img.ThisImage()) {
			panic("remote get wrong")
		}
		img.SyncAll()
	})
}

func TestPutGetFull(t *testing.T) {
	forEachTransport(t, 2, func(img *Image) {
		c := Allocate[float64](img, 4, 2)
		if img.ThisImage() == 1 {
			vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
			c.PutFull(2, vals)
		}
		img.SyncAll()
		if img.ThisImage() == 2 {
			got := c.Slice()
			for i, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8} {
				if got[i] != v {
					panic("full put mismatch")
				}
			}
		}
		got := c.GetFull(2)
		if img.ThisImage() == 1 && got[7] != 8 {
			panic("full get mismatch")
		}
		img.SyncAll()
	})
}

func TestDeallocateReusesHeap(t *testing.T) {
	err := Run(2, shmemOpts(), func(img *Image) {
		a := Allocate[int64](img, 1024)
		off1 := a.off
		a.Deallocate()
		b := Allocate[int64](img, 1024)
		if b.off != off1 {
			panic("symmetric heap did not reuse freed space")
		}
		b.Deallocate()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCodimensions(t *testing.T) {
	err := Run(6, shmemOpts(), func(img *Image) {
		// x[2,*]: cosubscripts (1,1),(2,1),(1,2),(2,2),(1,3),(2,3)
		c := Allocate[int64](img, 4).WithCodims(2, 0)
		if c.ImageIndex(1, 1) != 1 || c.ImageIndex(2, 1) != 2 || c.ImageIndex(1, 2) != 3 {
			panic("image_index wrong")
		}
		if c.ImageIndex(3, 1) != 0 {
			panic("out-of-cobound cosubscript should map to 0")
		}
		if c.ImageIndex(1) != 0 {
			panic("wrong corank should map to 0")
		}
		cs := c.CoSubscripts(5)
		if cs[0] != 1 || cs[1] != 3 {
			panic("cosubscripts wrong")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: ImageIndex and CoSubscripts are inverse for valid images.
func TestCodimsRoundtripProperty(t *testing.T) {
	err := Run(12, shmemOpts(), func(img *Image) {
		c := Allocate[int64](img, 1).WithCodims(3, 2, 0)
		if img.ThisImage() == 1 {
			f := func(imgIdx uint8) bool {
				j := int(imgIdx)%12 + 1
				return c.ImageIndex(c.CoSubscripts(j)...) == j
			}
			if qerr := quick.Check(f, nil); qerr != nil {
				panic(qerr)
			}
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOrderingSemanticsFig4(t *testing.T) {
	// Paper Figure 4: a put of coarray_b to coarray_a at image 2 followed by
	// a get of coarray_a from image 2 must observe the put (CAF ordering),
	// which requires the runtime's quiet insertion over OpenSHMEM.
	forEachTransport(t, 2, func(img *Image) {
		a := Allocate[int64](img, 4)
		b := Allocate[int64](img, 4)
		carr := Allocate[int64](img, 4)
		if img.ThisImage() == 1 {
			b.Fill(7)
			a.Put(2, All(4), b.Slice()) // coarray_a(:)[2] = coarray_b(:)
			got := a.Get(2, All(4))     // coarray_c(:) = coarray_a(:)[2]
			carr.SetSlice(got)
			if carr.At(2) != 7 {
				panic("get did not observe preceding put to same image")
			}
		}
		img.SyncAll()
	})
}

func TestStatsCountsAndDeferredQuiet(t *testing.T) {
	conservative := shmemOpts()
	deferred := shmemOpts()
	deferred.DeferredQuiet = true
	var quietsCons, quietsDef int64
	run := func(o Options) int64 {
		var q int64
		err := Run(2, o, func(img *Image) {
			c := Allocate[int64](img, 16)
			if img.ThisImage() == 1 {
				for i := 0; i < 10; i++ {
					c.PutElem(2, int64(i), i)
				}
				q = img.Stats.Quiets
			}
			img.SyncAll()
		})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	quietsCons = run(conservative)
	quietsDef = run(deferred)
	if quietsCons < 10 {
		t.Fatalf("conservative mode should quiet after every put, got %d", quietsCons)
	}
	if quietsDef >= quietsCons {
		t.Fatalf("deferred mode should issue fewer quiets (%d vs %d)", quietsDef, quietsCons)
	}
}

// WaitLocal compares stored words as signed 64-bit integers: every comparison
// is exact on int64 elements, equality works on any 8-byte type (bit patterns),
// and an ordered comparison on a type the signed compare would misorder —
// negative floats, uint64 past 2^63 — panics instead of answering wrongly.
func TestWaitLocalTypedComparison(t *testing.T) {
	forEachTransport(t, 2, func(img *Image) {
		i64 := Allocate[int64](img, 1)
		f64 := Allocate[float64](img, 1)
		u64 := Allocate[uint64](img, 1)
		if img.ThisImage() == 1 {
			i64.PutElem(2, -5, 0)
			f64.PutElem(2, -2.5, 0)
			u64.PutElem(2, math.MaxUint64, 0)
		} else {
			i64.WaitLocal(pgas.CmpLT, 0, 0)
			f64.WaitLocal(pgas.CmpEQ, -2.5, 0)
			u64.WaitLocal(pgas.CmpNE, 0, 0)
			if i64.At(0) != -5 || f64.At(0) != -2.5 || u64.At(0) != math.MaxUint64 {
				panic("WaitLocal returned before the awaited values arrived")
			}
			for _, ordered := range []func(){
				func() { f64.WaitLocal(pgas.CmpLT, 0, 0) },
				func() { u64.WaitLocal(pgas.CmpGE, 1<<63, 0) },
			} {
				func() {
					defer func() {
						if r := recover(); r == nil || !strings.Contains(r.(string), "requires int64 elements") {
							panic("ordered WaitLocal on a non-int64 coarray did not panic as documented")
						}
					}()
					ordered()
				}()
			}
		}
		img.SyncAll()
	})
}
