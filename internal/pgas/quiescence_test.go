package pgas

import (
	"fmt"
	"testing"

	"cafshmem/internal/fabric"
)

// The quiescence rule from both sides: the report of a deliberately
// mis-synchronised program names the right wait for every PE, and healthy
// programs that do little but sleep and wake are never poisoned. The rule is
// exact, so neither side has a time bound: a missed deadlock hangs the test,
// and any poison of a healthy world is a counting bug.

// TestDeadlockReport: six PEs, each stuck (or gone) in a different way, on
// two barrier shards — ranks 0–2 and 3–5. The report is a snapshot of a
// quiescent world, so it is the same text whatever order they got there in.
func TestDeadlockReport(t *testing.T) {
	const want = "pgas: deadlock: all 4 alive PEs blocked and no PE left to wake them" +
		" (and 1 departed PEs still blocked)" +
		" (pgas: image fault (failed PEs [2], stopped PEs [3]))" +
		": PE 0: barrier gen 1, shard 0, 1/2 arrived" +
		"; PE 1: wait [0x10,+8) = 0x0, last write t=0" +
		"; PE 2 (failed, unwinding): wait [0x0,+8) = 0x0, last write t=0" +
		"; PE 4: wait [0x20,+8) = 0x1, last write t=150" +
		"; PE 5: wait [0x28,+4), last write t=250"
	for _, e := range engineSpellings {
		t.Run(e.name, func(t *testing.T) {
			w, err := newWorldShards(testMachine(), 6, e.opts, 2)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *PE) {
				p.Barrier(0) // generation 0 completes: the program was healthy once
				switch p.ID {
				case 0: // in the barrier nobody else reaches
					p.BarrierTolerantDo(0, nil, nil, 0)
				case 1: // on a word only the failed PE would write
					p.WaitWordStat(0x10, CmpNE, 0, nil)
				case 2: // failed, its goroutine blocked in a deferred wait
					defer p.WaitWordStat(0, CmpNE, 0, nil)
					p.Fail()
				case 3: // stopped
				case 4: // 4 and 5 each wait for more than the other gives
					w.WriteUint64(5, 0x28, 1, 250)
					p.WaitWordStat(0x20, CmpGE, 2, nil)
				case 5:
					w.WriteUint64(4, 0x20, 1, 150)
					p.WaitUntilStat(0x28, 4, func(b []byte) bool { return b[0] > 1 }, nil)
				}
			})
			if err == nil || err.Error() != want {
				t.Errorf("report:\n got %v\nwant %s", err, want)
			}
		})
	}
}

// TestNoFalseDeadlock: a 2-PE ping-pong of 10⁵ hand-offs, where the count
// touches zero-but-one on every turn, and a 256-PE storm of barriers
// interleaved with ring flag waits, where every PE sleeps and is woken twice a
// round by two different kinds of waker. check.sh runs it at -cpu 1,2,8 with
// and without -race.
func TestNoFalseDeadlock(t *testing.T) {
	handoffs, rounds := 100_000, 200
	if testing.Short() {
		handoffs, rounds = 10_000, 20
	}
	for _, e := range engineSpellings {
		t.Run("pingpong/"+e.name, func(t *testing.T) {
			w, err := NewWorldOpts(fabric.CrayXC30(), 2, e.opts)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *PE) {
				for r := int64(1); r <= int64(handoffs/2); r++ {
					if p.ID == 0 {
						w.WriteUint64(1, 0, uint64(r), 0)
					}
					p.WaitWord(0, CmpGE, r)
					if p.ID == 1 {
						w.WriteUint64(0, 0, uint64(r), 0)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Run("storm/"+e.name, func(t *testing.T) {
			const n = 256
			w, err := newWorldShards(fabric.Stampede(), n, e.opts, 3)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(p *PE) {
				for r := int64(1); r <= int64(rounds); r++ {
					p.Barrier(0)
					w.WriteUint64((p.ID+1)%n, 0, uint64(r), 0)
					p.WaitWord(0, CmpGE, r)
				}
			})
			if err != nil {
				t.Fatalf("healthy storm poisoned: %v", err)
			}
		})
	}
}

// TestDeadlockSpinOnSleepingHolder: PE 0 takes a lock word and sleeps on a
// flag that nothing sets while PE 1 spins on the word through Spin, on PE 0's
// partition (a remote wait) and on its own (a local one). A spinner sleeps in
// its wait like any waiter, so the run ends in a report naming both waits.
func TestDeadlockSpinOnSleepingHolder(t *testing.T) {
	const word, flag = 0x40, 0x80
	for home, spin := range []string{"wait on PE 0 [0x40,+8)", "wait [0x40,+8)"} {
		want := "pgas: deadlock: all 2 alive PEs blocked and no PE left to wake them" +
			": PE 0: wait [0x80,+8) = 0x0, last write t=0" +
			"; PE 1: " + spin + " = 0x1, last write t=100"
		t.Run(fmt.Sprintf("home=%d", home), func(t *testing.T) {
			w, err := NewWorld(testMachine(), 2)
			if err != nil {
				t.Fatal(err)
			}
			probe := Price{Inject: 100}
			err = w.Run(func(p *PE) {
				if p.ID == 0 {
					p.CompareSwap64Stat(home, word, 0, 1, probe)
				}
				p.Barrier(0)
				if p.ID == 0 {
					p.WaitWordStat(flag, CmpNE, 0, nil)
					return
				}
				p.Spin(home, word, 10, 160, func() (uint64, bool) {
					return p.CompareSwap64Stat(home, word, 0, 2, probe)
				})
			})
			if err == nil || err.Error() != want {
				t.Errorf("report:\n got %v\nwant %s", err, want)
			}
		})
	}
}
