package gasnet

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

func ibvCfg() Config {
	return Config{Machine: fabric.Stampede(), Profile: fabric.ProfGASNetIBV}
}

func TestRunIdentity(t *testing.T) {
	err := Run(ibvCfg(), 4, func(ep *EP) {
		if ep.Nodes() != 4 {
			panic("Nodes wrong")
		}
		if ep.MyNode() < 0 || ep.MyNode() >= 4 {
			panic("MyNode out of range")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAttachReturnsTheRanksHandle: an endpoint is its rank's element of the
// world's endpoint table — attaching the PE again gives the endpoint Run gave,
// and no two ranks share one.
func TestAttachReturnsTheRanksHandle(t *testing.T) {
	const n = 4
	var handles [n]*EP
	err := Run(ibvCfg(), n, func(ep *EP) {
		if again := ep.world.Attach(ep.Pgas()); again != ep {
			t.Errorf("node %d: attaching again gave another endpoint", ep.MyNode())
		}
		handles[ep.MyNode()] = ep
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range handles {
		for j, b := range handles[:i] {
			if a == b {
				t.Errorf("nodes %d and %d share an endpoint", j, i)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewWorld(Config{}, 2); err == nil {
		t.Fatal("missing machine should fail")
	}
	if _, err := NewWorld(Config{Machine: fabric.Stampede(), Profile: "nope"}, 2); err == nil {
		t.Fatal("unknown profile should fail")
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	err := Run(ibvCfg(), 3, func(ep *EP) {
		seg := ep.Malloc(64)
		if ep.MyNode() == 0 {
			ep.Put(2, seg, 8, []byte{5, 6, 7})
		}
		ep.Barrier()
		if ep.MyNode() == 1 {
			got := make([]byte, 3)
			ep.Get(2, seg, 8, got)
			if got[0] != 5 || got[2] != 7 {
				panic("get returned wrong bytes")
			}
		}
		ep.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPutBoundsChecked(t *testing.T) {
	err := Run(ibvCfg(), 2, func(ep *EP) {
		seg := ep.Malloc(8)
		if ep.MyNode() == 0 {
			ep.Put(1, seg, 8, []byte{1})
		}
	})
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("expected overflow, got %v", err)
	}
}

func TestNonBlockingPutSync(t *testing.T) {
	err := Run(ibvCfg(), 17, func(ep *EP) {
		seg := ep.Malloc(8)
		if ep.MyNode() == 0 {
			ep.RMA(&pgas.RMA{Target: 16, Local: []byte{1, 2, 3, 4, 5, 6, 7, 8}}, seg, true)
			before := ep.Clock().Now()
			ep.WaitSyncImage(16)
			if ep.Clock().Now() <= before {
				panic("WaitSyncImage did not account for remote completion")
			}
		}
		ep.Barrier()
		if ep.MyNode() == 16 {
			got := make([]byte, 8)
			ep.Get(16, seg, 0, got)
			if got[7] != 8 {
				panic("nb put data missing")
			}
		}
		ep.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

const hFetchAdd = 1

func registerTestHandlers(w *World) {
	w.RegisterHandler(hFetchAdd, func(tok *Token, args []int64) {
		old, _ := tok.RMW64(args[0], pgas.OpAdd, uint64(args[1]))
		tok.Reply(int64(old))
	})
}

func TestAMRequestSyncReply(t *testing.T) {
	w, err := NewWorld(ibvCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	registerTestHandlers(w)
	err = w.pw.Run(func(p *pgas.PE) {
		ep := w.Attach(p)
		seg := ep.Malloc(8)
		ep.Barrier()
		before := ep.Clock().Now()
		reply := ep.RequestSync(0, hFetchAdd, seg.Off, 1)
		if ep.Clock().Now() <= before {
			panic("RequestSync must cost a round trip")
		}
		if reply[0] < 0 || reply[0] > 2 {
			panic("fetch-add reply out of range")
		}
		ep.Barrier()
		if ep.MyNode() == 0 {
			var b [8]byte
			ep.Get(0, seg, 0, b[:])
			if binary.NativeEndian.Uint64(b[:]) != 3 {
				panic("fetch-add total wrong")
			}
		}
		ep.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHandlerRegistryGuards(t *testing.T) {
	w, err := NewWorld(ibvCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w.RegisterHandler(3, func(*Token, []int64) {})
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("double register", func() { w.RegisterHandler(3, func(*Token, []int64) {}) })
	mustPanic("out of range", func() { w.RegisterHandler(MaxHandlers, func(*Token, []int64) {}) })
	mustPanic("unregistered dispatch", func() {
		_ = w.pw.Run(func(p *pgas.PE) { w.Attach(p).RequestSync(0, 99) })
		panic("unreachable if Run already surfaced the handler panic")
	})
}

func TestMallocSymmetric(t *testing.T) {
	segs := make([]Seg, 4)
	err := Run(ibvCfg(), 4, func(ep *EP) {
		segs[ep.MyNode()] = ep.Malloc(100)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if segs[i] != segs[0] {
			t.Fatal("Malloc not symmetric")
		}
	}
}

// Malloc and Free share the world's heap with every library: a freed region
// is reused and reads as zero, a double free panics on every node, and under
// the sanitizer a region never freed is a leak and a put through a handle that
// lies inside no live region is a bad handle — the whole-partition view
// excepted.
func TestMallocFreeThroughTheHeap(t *testing.T) {
	err := Run(ibvCfg(), 2, func(ep *EP) {
		a := ep.Malloc(64)
		ep.Put(1-ep.MyNode(), a, 0, []byte{7})
		ep.Barrier()
		ep.Free(a)
		b := ep.Malloc(64)
		var got [1]byte
		ep.Get(ep.MyNode(), b, 0, got[:])
		if b != a || got[0] != 0 {
			panic("freed region not reused, or not cleared")
		}
		ep.Free(b)
		ep.Free(b)
	})
	if err == nil || !strings.Contains(err.Error(), "free of unallocated offset") {
		t.Fatalf("want a double-free panic, got %v", err)
	}
	sanitized := ibvCfg()
	sanitized.Sanitize = true
	err = Run(sanitized, 2, func(ep *EP) {
		ep.Malloc(8) // never freed
		forged := Seg{Off: 1 << 20, Size: 8}
		whole := Seg{Off: 0, Size: pgas.MaxSegmentBytes}
		if ep.MyNode() == 0 {
			ep.Put(1, forged, 0, []byte{1})
			ep.Put(1, whole, 1<<20, []byte{1})
		}
		ep.Barrier()
	})
	if err == nil || strings.Count(err.Error(), "bad-handle") != 1 || !strings.Contains(err.Error(), "never freed") {
		t.Fatalf("want one bad-handle and one leak finding, got %v", err)
	}
}

func TestMallocStatReturnsExhaustion(t *testing.T) {
	err := Run(ibvCfg(), 2, func(ep *EP) {
		if _, err := ep.MallocStat(pgas.MaxSegmentBytes); err == nil || !strings.Contains(err.Error(), "exhausted") {
			panic(fmt.Sprintf("MallocStat(MaxSegmentBytes) = %v, want the heap's exhaustion", err))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAMAtomicCostExceedsNativeModel(t *testing.T) {
	// The AM-emulated fetch-add over GASNet must cost more virtual time than
	// a native SHMEM atomic on the same machine — the paper's lock argument.
	gasProf := fabric.Stampede().MustProfile(fabric.ProfGASNetIBV)
	shmProf := fabric.Stampede().MustProfile(fabric.ProfMV2XSHMEM)
	if gasProf.AtomicRTTNs(false, 1) <= shmProf.AtomicRTTNs(false, 1) {
		t.Fatal("calibration: GASNet AM atomic should cost more than native SHMEM atomic")
	}

	w, err := NewWorld(ibvCfg(), 17)
	if err != nil {
		t.Fatal(err)
	}
	registerTestHandlers(w)
	var measured float64
	err = w.pw.Run(func(p *pgas.PE) {
		ep := w.Attach(p)
		seg := ep.Malloc(8)
		ep.Barrier()
		if ep.MyNode() == 0 {
			start := ep.Clock().Now()
			ep.RequestSync(16, hFetchAdd, seg.Off, 1)
			measured = ep.Clock().Now() - start
		}
		ep.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if measured <= shmProf.AtomicRTTNs(false, 16) {
		t.Fatalf("AM round trip (%v ns) should exceed native atomic cost", measured)
	}
}

// GASNet guarantees handler atomicity per node: two handlers never run
// concurrently on the same target. We hammer a multi-word read-modify-write
// handler from many nodes; any interleaving would corrupt the invariant
// word0 == word1.
func TestHandlerAtomicityUnderConcurrency(t *testing.T) {
	w, err := NewWorld(ibvCfg(), 8)
	if err != nil {
		t.Fatal(err)
	}
	w.RegisterHandler(11, func(tok *Token, args []int64) {
		a, _ := tok.RMW64(args[0], pgas.OpAdd, 1)
		b, _ := tok.RMW64(args[0]+8, pgas.OpAdd, 1)
		if a != b {
			panic("handler observed torn state: atomicity violated")
		}
		tok.Reply()
	})
	err = w.pw.Run(func(p *pgas.PE) {
		ep := w.Attach(p)
		seg := ep.Malloc(16)
		for i := 0; i < 50; i++ {
			ep.RequestSync(0, 11, seg.Off)
		}
		ep.Barrier()
		if ep.MyNode() == 0 {
			var b [16]byte
			ep.Get(0, seg, 0, b[:])
			if binary.NativeEndian.Uint64(b[:8]) != 400 || binary.NativeEndian.Uint64(b[8:]) != 400 {
				panic("handler updates lost")
			}
		}
		ep.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Replying twice from one handler is a GASNet usage error.
func TestDoubleReplyPanics(t *testing.T) {
	w, err := NewWorld(ibvCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	w.RegisterHandler(12, func(tok *Token, _ []int64) {
		tok.Reply(1)
		tok.Reply(2)
	})
	err = w.pw.Run(func(p *pgas.PE) {
		ep := w.Attach(p)
		if ep.MyNode() == 0 {
			ep.RequestSync(1, 12)
		}
	})
	if err == nil {
		t.Fatal("double reply should panic")
	}
}
