package pgas

import (
	"reflect"
	"testing"

	"cafshmem/internal/fabric"
)

func deliveryWorld(t *testing.T, n int) *World {
	t.Helper()
	w, err := NewWorld(fabric.Stampede(), n)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// dupPlan makes 0->1 and 1->0 lossy without ever dropping a packet, so every
// message lands on its first attempt.
var dupPlan = &fabric.FaultPlan{Seed: 3, Losses: []fabric.LinkLoss{{Src: 0, Dst: 1, DupProb: 0.5}, {Src: 1, Dst: 0, DupProb: 0.5}}}

// TestDeliverWriteExactlyOnce: Transmit draws the link's sequence numbers and
// passes the receiver window with them under one lock, so each message lands
// once; a sender that replays a sequence number (rewound here by hand) is
// suppressed and counted, and each direction has its own window.
func TestDeliverWriteExactlyOnce(t *testing.T) {
	w := deliveryWorld(t, 2)
	for i := 0; i < 3; i++ {
		if lands, _, _, acked := w.Transmit(dupPlan, 0, 1, 100, 10, false); !lands || !acked {
			t.Fatalf("message %d: lands=%v acked=%v on a drop-free link", i, lands, acked)
		}
	}
	ls := w.dlv.links[linkKey{0, 1}]
	if ls.sent != 3 || ls.nextSeq != 3 {
		t.Fatalf("after 3 messages sent=%d window=%d, want 3 and 3", ls.sent, ls.nextSeq)
	}
	fabricDups := ls.DupsSuppressed
	for _, seq := range []uint64{0, 2, 1} {
		ls.sent = seq
		if lands, _, _, _ := w.Transmit(dupPlan, 0, 1, 100, 10, false); lands {
			t.Fatalf("replayed seq %d landed again", seq)
		}
	}
	replayed := uint64(0)
	for _, seq := range []uint64{0, 2, 1} {
		replayed += uint64(dupPlan.Deliver(0, 1, seq, 100, 10).Dups)
	}
	if got := ls.DupsSuppressed - fabricDups - replayed; got != 3 {
		t.Fatalf("window suppressed %d replays, want 3", got)
	}
	// The reverse direction has its own sequence and window.
	if lands, _, _, _ := w.Transmit(dupPlan, 1, 0, 100, 10, false); !lands {
		t.Fatal("reverse link shares the forward window")
	}
	if reps := w.LinkReports(); len(reps) != 2 || reps[0].Src != 0 || reps[1].Src != 1 || reps[1].Msgs != 1 {
		t.Fatalf("want one report per direction, got %v", reps)
	}
}

// TestNoteDeliveryCounters: on a lossy link Transmit returns exactly what
// fabric.FaultPlan.Deliver computes for the link's next sequence number and
// accumulates its forensics; a link no rule names is the identity case and
// leaves no state behind.
func TestNoteDeliveryCounters(t *testing.T) {
	w := deliveryWorld(t, 3)
	plan := &fabric.FaultPlan{
		Seed:   11,
		Losses: []fabric.LinkLoss{{Src: 1, Dst: 0, DropProb: 0.5, DelayMaxNs: 300, DupProb: 0.2}},
		Retry:  fabric.RetryPolicy{RetryBaseNs: 500, RetryCapNs: 2000, MaxRetries: 2},
	}
	want := LinkReport{Src: 1, Dst: 0}
	gaveUp := 0
	for seq := uint64(0); seq < 40; seq++ {
		wire := 1000 * float64(seq)
		d := plan.Deliver(1, 0, seq, wire, 90)
		lands, vis, horizon, acked := w.Transmit(plan, 1, 0, wire, 90, seq%2 == 1)
		wantHorizon := d.AckedNs
		if !d.Acked {
			wantHorizon = d.GaveUpNs
			gaveUp++
		}
		if lands != d.Delivered || (lands && vis != d.DeliveredNs) || horizon != wantHorizon || acked != d.Acked {
			t.Fatalf("seq %d: Transmit = (%v, %v, %v, %v), Deliver = %+v", seq, lands, vis, horizon, acked, d)
		}
		want.Msgs++
		want.Attempts += uint64(d.Attempts)
		want.Retries += uint64(d.Retries())
		want.Drops += uint64(d.Drops)
		want.AckDrops += uint64(d.AckDrops)
		want.DupsSuppressed += uint64(d.Dups)
	}
	if gaveUp == 0 || gaveUp == 40 || want.Retries == 0 {
		t.Fatalf("plan does not exercise both outcomes: %d of 40 gave up, %+v", gaveUp, want)
	}
	// Transmit reports a give-up; publishing it is the caller's move, after
	// the payload.
	if w.AnyUnreachable() {
		t.Fatal("Transmit published a give-up")
	}
	for _, reply := range []bool{false, true} {
		lands, vis, horizon, acked := w.Transmit(plan, 0, 2, 1000, 90, reply)
		wantHorizon := 1000 + 90.0
		if reply {
			wantHorizon = 1000 + 2*90.0
		}
		if !lands || vis != 1000+90 || horizon != wantHorizon || !acked {
			t.Fatalf("identity case (reply=%v) = (%v, %v, %v, %v)", reply, lands, vis, horizon, acked)
		}
	}
	if lands, vis, horizon, acked := w.Transmit(nil, 1, 0, 5, 7, false); !lands || vis != 12 || horizon != 12 || !acked {
		t.Fatalf("nil plan = (%v, %v, %v, %v)", lands, vis, horizon, acked)
	}
	if reps := w.LinkReports(); len(reps) != 1 || !reflect.DeepEqual(reps[0], want) {
		t.Fatalf("reports = %+v, want [%+v]", reps, want)
	}
}

func TestMarkUnreachable(t *testing.T) {
	w := deliveryWorld(t, 3)
	if w.AnyUnreachable() || w.Unreachable(0, 1) {
		t.Fatal("fresh world has unreachable links")
	}
	w.MarkUnreachable(0, 1)
	w.MarkUnreachable(0, 1) // sticky, idempotent
	if !w.AnyUnreachable() || !w.Unreachable(0, 1) {
		t.Fatal("mark did not stick")
	}
	if w.Unreachable(1, 0) || w.Unreachable(0, 2) {
		t.Fatal("mark leaked to other links")
	}
	if got := w.unreachableLinks(); !reflect.DeepEqual(got, []string{"0->1"}) {
		t.Fatalf("unreachableLinks = %v, want [0->1]", got)
	}
	// A sender's give-ups come back in the order it declared them; the
	// job-wide destination set is sorted.
	w.MarkUnreachable(2, 1)
	w.MarkUnreachable(2, 0)
	w.MarkUnreachable(2, 1)
	if got := w.UnreachableFrom(2); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("UnreachableFrom(2) = %v, want [1 0]", got)
	}
	if got := w.UnreachableFrom(1); got != nil {
		t.Fatalf("UnreachableFrom(1) = %v, want none", got)
	}
	if got := w.UnreachableDsts(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("UnreachableDsts = %v, want [0 1]", got)
	}
}

// TestMarkUnreachableWakesWaiter: a consumer blocked in WaitUntilStat whose
// onEvent watches the link must observe the mark instead of hanging — the
// escalation path WaitStat and QuietStat rely on.
func TestMarkUnreachableWakesWaiter(t *testing.T) {
	w := deliveryWorld(t, 2)
	errLink := &ImageFault{Failed: []int{0}}
	err := w.Run(func(p *PE) {
		if p.ID == 0 {
			// Producer: its message to PE 1 exhausts retries.
			p.Clock.Advance(100)
			w.MarkUnreachable(0, 1)
			return
		}
		_, err := p.WaitUntilStat(0, 8, func(b []byte) bool { return b[0] != 0 }, func() error {
			if w.Unreachable(0, 1) {
				return errLink
			}
			return nil
		})
		if err != errLink {
			t.Errorf("wait returned %v, want the link fault", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
