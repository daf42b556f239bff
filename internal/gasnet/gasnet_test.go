package gasnet

import (
	"encoding/binary"
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
			h := ep.PutNB(16, seg, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
			before := ep.Clock().Now()
			ep.WaitSync(h)
			if ep.Clock().Now() <= before {
				panic("WaitSync did not account for remote completion")
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

const (
	hIncr = iota
	hFetchAdd
	hDeposit
)

func registerTestHandlers(w *World) {
	w.RegisterHandler(hIncr, func(tok *Token, payload []byte, args []int64) {
		tok.RMW64(args[0], pgas.OpAdd, uint64(args[1]))
	})
	w.RegisterHandler(hFetchAdd, func(tok *Token, payload []byte, args []int64) {
		old := tok.RMW64(args[0], pgas.OpAdd, uint64(args[1]))
		tok.Reply(int64(old))
	})
	w.RegisterHandler(hDeposit, func(tok *Token, payload []byte, args []int64) {
		tok.Write(args[0], payload)
	})
}

func TestAMShortFireAndForget(t *testing.T) {
	w, err := NewWorld(ibvCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	registerTestHandlers(w)
	err = w.pw.Run(func(p *pgas.PE) {
		ep := w.Attach(p)
		seg := ep.Malloc(8)
		for i := 0; i < 10; i++ {
			ep.RequestShort(0, hIncr, seg.Off, 1)
		}
		ep.Barrier()
		if ep.MyNode() == 0 {
			var b [8]byte
			ep.Get(0, seg, 0, b[:])
			if binary.NativeEndian.Uint64(b[:]) != 40 {
				panic("AM increments lost")
			}
		}
		ep.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
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

func TestAMMediumPayload(t *testing.T) {
	w, err := NewWorld(ibvCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	registerTestHandlers(w)
	err = w.pw.Run(func(p *pgas.PE) {
		ep := w.Attach(p)
		seg := ep.Malloc(32)
		if ep.MyNode() == 1 {
			ep.RequestMedium(0, hDeposit, []byte("hello"), seg.Off)
		}
		ep.Barrier()
		if ep.MyNode() == 0 {
			got := make([]byte, 5)
			ep.Get(0, seg, 0, got)
			if string(got) != "hello" {
				panic("medium payload not delivered")
			}
		}
		ep.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAMLongDepositsThenRuns(t *testing.T) {
	w, err := NewWorld(ibvCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	w.RegisterHandler(7, func(tok *Token, payload []byte, args []int64) {
		// Handler sees the long payload already in the segment.
		got := make([]byte, 4)
		tok.Read(args[0], got)
		if string(got) != "data" {
			panic("long payload not visible to handler")
		}
		tok.WriteU64(args[1], 1)
	})
	err = w.pw.Run(func(p *pgas.PE) {
		ep := w.Attach(p)
		seg := ep.Malloc(64)
		if ep.MyNode() == 1 {
			ep.RequestLong(0, 7, seg, 0, []byte("data"), seg.Off, seg.Off+8)
		}
		ep.Barrier()
		if ep.MyNode() == 0 {
			var b [8]byte
			ep.Get(0, seg, 8, b[:])
			if binary.NativeEndian.Uint64(b[:]) != 1 {
				panic("long handler flag missing")
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
	w.RegisterHandler(3, func(*Token, []byte, []int64) {})
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("double register", func() { w.RegisterHandler(3, func(*Token, []byte, []int64) {}) })
	mustPanic("out of range", func() { w.RegisterHandler(MaxHandlers, func(*Token, []byte, []int64) {}) })
	mustPanic("unregistered dispatch", func() {
		_ = w.pw.Run(func(p *pgas.PE) { w.Attach(p).RequestShort(0, 99) })
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
	w.RegisterHandler(11, func(tok *Token, _ []byte, args []int64) {
		a := tok.ReadU64(args[0])
		b := tok.ReadU64(args[0] + 8)
		if a != b {
			panic("handler observed torn state: atomicity violated")
		}
		tok.WriteU64(args[0], a+1)
		tok.WriteU64(args[0]+8, b+1)
	})
	err = w.pw.Run(func(p *pgas.PE) {
		ep := w.Attach(p)
		seg := ep.Malloc(16)
		for i := 0; i < 50; i++ {
			ep.RequestShort(0, 11, seg.Off)
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
	w.RegisterHandler(12, func(tok *Token, _ []byte, _ []int64) {
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
