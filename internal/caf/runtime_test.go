package caf

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSyncImagesPairwise(t *testing.T) {
	forEachTransport(t, 4, func(img *Image) {
		c := Allocate[int64](img, 1)
		// Image 1 produces for image 2; pairwise sync orders the access.
		switch img.ThisImage() {
		case 1:
			c.PutElem(2, 99, 0)
			img.SyncImages(2)
		case 2:
			img.SyncImages(1)
			if c.At(0) != 99 {
				panic("sync images did not order put before read")
			}
		}
		img.SyncAll()
	})
}

func TestSyncImagesRepeated(t *testing.T) {
	// Repeated pairwise syncs must match one-to-one (counter semantics).
	forEachTransport(t, 2, func(img *Image) {
		c := Allocate[int64](img, 1)
		for i := int64(1); i <= 10; i++ {
			if img.ThisImage() == 1 {
				c.PutElem(2, i, 0)
				img.SyncImages(2)
				img.SyncImages(2) // consumer confirms read
			} else {
				img.SyncImages(1)
				if c.At(0) != i {
					panic("stale value across repeated sync images")
				}
				img.SyncImages(1)
			}
		}
	})
}

func TestSyncImagesSelfIsNoop(t *testing.T) {
	err := Run(2, shmemOpts(), func(img *Image) {
		img.SyncImages(img.ThisImage())
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAtomicVarOps(t *testing.T) {
	forEachTransport(t, 4, func(img *Image) {
		a := NewAtomicVar(img)
		// All images add into image 1's instance.
		for i := 0; i < 10; i++ {
			a.Add(1, 1)
		}
		img.SyncAll()
		if img.ThisImage() == 1 {
			if v := a.Ref(1); v != 40 {
				panic("atomic adds lost")
			}
		}
		img.SyncAll()
		if img.ThisImage() == 2 {
			a.Define(2, 0b1100)
			if old := a.FetchAnd(2, 0b1010); old != 0b1100 {
				panic("fetch_and old wrong")
			}
			if old := a.FetchOr(2, 0b0001); old != 0b1000 {
				panic("fetch_or old wrong")
			}
			a.Xor(2, 0b1111)
			if v := a.Ref(2); v != 0b0110 {
				panic("xor result wrong")
			}
			if old := a.CompareSwap(2, 0b0110, 42); old != 0b0110 {
				panic("cas success wrong")
			}
			if old := a.CompareSwap(2, 0b0110, 77); old != 42 {
				panic("cas failure wrong")
			}
			if old := a.Swap(2, 7); old != 42 {
				panic("swap old wrong")
			}
		}
		img.SyncAll()
	})
}

func TestCoSumAllImages(t *testing.T) {
	forEachTransport(t, 7, func(img *Image) {
		vals := []int64{int64(img.ThisImage()), 10 * int64(img.ThisImage())}
		got := CoSum(img, vals, 0)
		n := int64(img.NumImages())
		wantA := n * (n + 1) / 2
		if got[0] != wantA || got[1] != 10*wantA {
			panic("co_sum wrong")
		}
		img.SyncAll()
	})
}

// A reduction wider than the combine's decode chunk, with a ragged tail.
func TestCoSumLongVector(t *testing.T) {
	forEachTransport(t, 5, func(img *Image) {
		vals := make([]float64, 150)
		for i := range vals {
			vals[i] = float64(img.ThisImage() * (i + 1))
		}
		got := CoSum(img, vals, 0)
		for i, v := range got {
			if want := float64(15 * (i + 1)); v != want {
				panic(fmt.Sprintf("co_sum element %d = %v, want %v", i, v, want))
			}
		}
		img.SyncAll()
	})
}

func TestCoSumResultImage(t *testing.T) {
	err := Run(5, shmemOpts(), func(img *Image) {
		vals := []int64{int64(img.ThisImage())}
		got := CoSum(img, vals, 3)
		if img.ThisImage() == 3 && got[0] != 15 {
			panic("co_sum result image did not receive the sum")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoMinMaxFloat(t *testing.T) {
	err := Run(6, shmemOpts(), func(img *Image) {
		v := []float64{float64(img.ThisImage()) * 1.5}
		if got := CoMax(img, v, 0); got[0] != 9 {
			panic("co_max wrong")
		}
		if got := CoMin(img, v, 0); got[0] != 1.5 {
			panic("co_min wrong")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoReduceCustomOp(t *testing.T) {
	err := Run(4, shmemOpts(), func(img *Image) {
		v := []int64{int64(img.ThisImage())}
		got := CoReduce(img, v, func(a, b int64) int64 { return a * b }, 0)
		if got[0] != 24 {
			panic("co_reduce product wrong")
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCoBroadcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 6, 9} {
		err := Run(n, shmemOpts(), func(img *Image) {
			src := img.NumImages()/2 + 1
			v := []int64{0, 0}
			if img.ThisImage() == src {
				v = []int64{777, -3}
			}
			got := CoBroadcast(img, v, src)
			if got[0] != 777 || got[1] != -3 {
				panic("co_broadcast value missing")
			}
			img.SyncAll()
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// Property: co_sum over random per-image contributions equals the serial sum.
func TestCoSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		base := seed % 1000
		var ok int32 = 1
		err := Run(5, shmemOpts(), func(img *Image) {
			v := []int64{base + int64(img.ThisImage())*7}
			got := CoSum(img, v, 0)
			want := int64(0)
			for j := 1; j <= 5; j++ {
				want += base + int64(j)*7
			}
			if got[0] != want {
				atomic.StoreInt32(&ok, 0)
			}
			img.SyncAll()
		})
		return err == nil && atomic.LoadInt32(&ok) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestEvents(t *testing.T) {
	forEachTransport(t, 3, func(img *Image) {
		ev := NewEvent(img)
		data := Allocate[int64](img, 1)
		switch img.ThisImage() {
		case 1, 2:
			data.PutElem(3, int64(img.ThisImage()), 0) // racy on purpose; event orders
			ev.Post(3)
		case 3:
			ev.Wait(2) // both producers posted
			if v := data.At(0); v != 1 && v != 2 {
				panic("event wait before producer data arrived")
			}
			if ev.Query() != 0 {
				panic("event count not consumed")
			}
		}
		img.SyncAll()
	})
}

func TestEventQueryNonConsuming(t *testing.T) {
	err := Run(2, shmemOpts(), func(img *Image) {
		ev := NewEvent(img)
		if img.ThisImage() == 1 {
			ev.Post(2)
		}
		img.SyncAll()
		if img.ThisImage() == 2 {
			if ev.Query() != 1 {
				panic("query should see the post")
			}
			if ev.Query() != 1 {
				panic("query must not consume")
			}
			ev.Wait(1)
			if ev.Query() != 0 {
				panic("wait should consume")
			}
		}
		img.SyncAll()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonSymmetricAllocator(t *testing.T) {
	err := Run(1, shmemOpts(), func(img *Image) {
		before := img.nonsym.avail()
		a := img.AllocNonSymmetric(100)
		b := img.AllocNonSymmetric(50)
		if a == b {
			panic("aliased allocations")
		}
		if a%nsAlign != 0 || b%nsAlign != 0 {
			panic("unaligned allocation")
		}
		img.FreeNonSymmetric(a, 100)
		img.FreeNonSymmetric(b, 50)
		if img.nonsym.avail() != before {
			panic("allocator leaked")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonSymmetricExhaustion(t *testing.T) {
	err := Run(1, shmemOpts(), func(img *Image) {
		img.AllocNonSymmetric(nonSymBytes + 1)
	})
	if err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("exhausting the non-symmetric buffer must panic, got %v", err)
	}
}

// Property: the non-symmetric allocator keeps live spans disjoint under
// random alloc/free sequences.
func TestNonSymmetricAllocatorProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		var a nsAlloc
		a.init(64, 1<<16)
		type blk struct{ off, size int64 }
		var live []blk
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				size := int64(op%512) + 1
				off, err := a.alloc(size)
				if err != nil {
					continue // exhaustion is fine under random load
				}
				nb := blk{off, (size + nsAlign - 1) &^ (nsAlign - 1)}
				for _, l := range live {
					if l.off < nb.off+nb.size && nb.off < l.off+l.size {
						return false
					}
				}
				live = append(live, nb)
			} else {
				i := int(op) % len(live)
				a.release(live[i].off, live[i].size)
				live = append(live[:i], live[i+1:]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTableMappings(t *testing.T) {
	rows := TableII()
	if len(rows) < 15 {
		t.Fatalf("Table II has %d rows, expected the paper's full feature set", len(rows))
	}
	indirect := 0
	for _, r := range rows {
		if r.Property == "" || r.CAF == "" || r.OpenSHMEM == "" || r.Runtime == "" {
			t.Fatalf("incomplete row: %+v", r)
		}
		if strings.Contains(r.Runtime, "Transport.") { // its one method is Name
			t.Errorf("row %q names a Transport method that does not exist: %s", r.Property, r.Runtime)
		}
		// A transfer's row names what the backend calls: the library's entry for
		// the image's descriptor.
		if strings.HasPrefix(r.Property, "Remote memory") || strings.HasPrefix(r.Property, "1-D strided") {
			if !strings.Contains(r.Runtime, "pgas.RMA{") || !strings.Contains(r.Runtime, "-> shmem.PE.RMA") {
				t.Errorf("row %q does not name the descriptor and the entry the backend hands it to: %s", r.Property, r.Runtime)
			}
		}
		if !r.Direct {
			indirect++
		}
	}
	// The paper contributes algorithms for exactly three gaps: multi-dim
	// strided put, multi-dim strided get, and remote locks.
	if indirect != 3 {
		t.Fatalf("expected 3 non-direct mappings (paper's contributions), got %d", indirect)
	}
	if len(TableI()) < 5 {
		t.Fatal("Table I should list the CAF implementations")
	}
}

func TestTransportNames(t *testing.T) {
	err := Run(1, shmemOpts(), func(img *Image) {
		if img.Transport().Name() == "" {
			panic("transport must be identifiable")
		}
		if img.Options().Strided.String() == "" {
			panic("strided algo must stringify")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stringers for all enum values.
	for _, a := range []StridedAlgo{StridedNaive, StridedOneDim, Strided2Dim, StridedVendor} {
		if a.String() == "" {
			t.Fatal("strided stringer")
		}
	}
	for _, l := range []LockAlgo{LockMCS, LockVendor, LockNaiveSpin, LockGlobalArray} {
		if l.String() == "" {
			t.Fatal("lock stringer")
		}
	}
	for _, k := range []TransportKind{TransportSHMEM, TransportGASNet} {
		if k.String() == "" {
			t.Fatal("transport stringer")
		}
	}
}
