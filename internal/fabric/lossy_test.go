package fabric

import (
	"reflect"
	"testing"
)

// lossPlan builds a single-rule plan for the Deliver tests.
func lossPlan(seed uint64, rule LinkLoss, pol RetryPolicy) *FaultPlan {
	return &FaultPlan{Seed: seed, Losses: []LinkLoss{rule}, Retry: pol}
}

func TestDeliverDeterministic(t *testing.T) {
	fp := lossPlan(0xfeed, LinkLoss{Src: -1, Dst: -1, DropProb: 0.4, DelayMaxNs: 500, DupProb: 0.2}, RetryPolicy{})
	for seq := uint64(0); seq < 64; seq++ {
		a := fp.Deliver(1, 2, seq, 10000, 1900)
		b := fp.Deliver(1, 2, seq, 10000, 1900)
		if a != b {
			t.Fatalf("seq %d: Deliver not deterministic:\n%+v\n%+v", seq, a, b)
		}
	}
	// A different seed must (overwhelmingly) fault different messages.
	other := lossPlan(0xfeed+1, fp.Losses[0], RetryPolicy{})
	same := 0
	for seq := uint64(0); seq < 64; seq++ {
		if fp.Deliver(1, 2, seq, 10000, 1900) == other.Deliver(1, 2, seq, 10000, 1900) {
			same++
		}
	}
	if same == 64 {
		t.Error("different seeds produced identical outcomes for all 64 messages")
	}
}

// TestDeliverLossFree: with no active faults the first attempt lands at
// send+latency, the ack returns one latency later, and nothing retries.
func TestDeliverLossFree(t *testing.T) {
	// The rule exists (so the pair is lossy) but its window is elsewhere.
	fp := lossPlan(7, LinkLoss{Src: 0, Dst: 1, FromNs: 1e6, ToNs: 2e6, DropProb: 1}, RetryPolicy{})
	d := fp.Deliver(0, 1, 3, 5000, 1900)
	want := Delivery{Delivered: true, DeliveredNs: 6900, Acked: true, AckedNs: 8800, Attempts: 1}
	if d != want {
		t.Fatalf("loss-free Deliver = %+v, want %+v", d, want)
	}
}

// TestDeliverSeveredLink: DropProb 1 over an open-ended window exhausts the
// retries; GaveUpNs is the sum of the capped backoff schedule.
func TestDeliverSeveredLink(t *testing.T) {
	pol := RetryPolicy{RetryBaseNs: 1000, RetryCapNs: 4000, MaxRetries: 4}
	fp := lossPlan(9, LinkLoss{Src: 2, Dst: 0, DropProb: 1}, pol)
	d := fp.Deliver(2, 0, 0, 100, 1900)
	if d.Delivered || d.Acked {
		t.Fatalf("severed link delivered: %+v", d)
	}
	if d.Attempts != 5 || d.Drops != 5 {
		t.Fatalf("want 5 attempts all dropped, got %+v", d)
	}
	// rto schedule: 1000, 2000, 4000, 4000, 4000 (capped) from sendNs=100.
	if want := 100.0 + 1000 + 2000 + 4000 + 4000 + 4000; d.GaveUpNs != want {
		t.Fatalf("GaveUpNs = %v, want %v", d.GaveUpNs, want)
	}
	if d.Retries() != 4 {
		t.Fatalf("Retries() = %d, want 4", d.Retries())
	}
}

// TestDeliverAckLoss: the data always lands, but acks can drop — the sender
// retransmits and the receiver suppresses the duplicates.
func TestDeliverAckLoss(t *testing.T) {
	pol := RetryPolicy{RetryBaseNs: 8000, RetryCapNs: 64000, MaxRetries: 6}
	fp := lossPlan(0xac, LinkLoss{Src: 0, Dst: 3, DropProb: 0.5}, pol)
	sawRetryAfterDelivery := false
	for seq := uint64(0); seq < 200; seq++ {
		d := fp.Deliver(0, 3, seq, 1000, 1900)
		if d.Delivered && d.Acked && d.Attempts > 1 && d.Dups > 0 {
			sawRetryAfterDelivery = true
			if d.AckedNs < d.DeliveredNs {
				t.Fatalf("seq %d: ack before delivery: %+v", seq, d)
			}
		}
		if d.Delivered && d.DeliveredNs < 1000+1900 {
			t.Fatalf("seq %d: delivered before flight time: %+v", seq, d)
		}
	}
	if !sawRetryAfterDelivery {
		t.Error("200 messages at 50% loss produced no suppressed duplicate retransmit")
	}
}

// TestDeliverJitterBounds: surviving packets arrive within [lat, lat+delayMax).
func TestDeliverJitterBounds(t *testing.T) {
	fp := lossPlan(0x11, LinkLoss{Src: -1, Dst: -1, DelayMaxNs: 700}, RetryPolicy{})
	for seq := uint64(0); seq < 100; seq++ {
		d := fp.Deliver(4, 5, seq, 2000, 1500)
		if !d.Delivered || !d.Acked || d.Attempts != 1 {
			t.Fatalf("seq %d: jitter-only link should deliver first try: %+v", seq, d)
		}
		fl := d.DeliveredNs - 2000
		if fl < 1500 || fl >= 2200 {
			t.Fatalf("seq %d: flight %v outside [1500, 2200)", seq, fl)
		}
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	pol := RetryPolicy{}.norm()
	if pol.RetryBaseNs != DefaultRetryBaseNs || pol.RetryCapNs != DefaultRetryCapNs || pol.MaxRetries != DefaultMaxRetries {
		t.Fatalf("zero policy should normalise to defaults, got %+v", pol)
	}
	p := RetryPolicy{RetryBaseNs: 1000, RetryCapNs: 5000, MaxRetries: 8}
	want := []float64{1000, 2000, 4000, 5000, 5000}
	for k, w := range want {
		if got := p.rto(k); got != w {
			t.Fatalf("rto(%d) = %v, want %v", k, got, w)
		}
	}
}

func TestLossyPair(t *testing.T) {
	fp := &FaultPlan{Losses: []LinkLoss{
		{Src: 1, Dst: 2},
		{Src: -1, Dst: 4},
		{Src: 5, Dst: -1},
	}}
	cases := []struct {
		src, dst int
		want     bool
	}{
		{1, 2, true},
		{2, 1, false},   // directed
		{0, 4, true},    // wildcard src
		{3, 4, true},
		{5, 0, true},    // wildcard dst
		{5, 5, false},   // self is never lossy
		{0, 1, false},
	}
	for _, c := range cases {
		if got := fp.LossyPair(c.src, c.dst); got != c.want {
			t.Errorf("LossyPair(%d,%d) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
	var nilPlan *FaultPlan
	if nilPlan.LossyPair(0, 1) {
		t.Error("nil plan has no lossy pairs")
	}
	if (&FaultPlan{Losses: []LinkLoss{{Src: -1, Dst: -1}}}).Empty() {
		t.Error("a plan with losses is not empty")
	}
}

// TestLossAtComposition: overlapping rules compose drop probabilities as
// independent events and add their delay bounds.
func TestLossAtComposition(t *testing.T) {
	fp := &FaultPlan{Losses: []LinkLoss{
		{Src: 0, Dst: 1, FromNs: 0, ToNs: 100, DropProb: 0.5, DelayMaxNs: 100},
		{Src: -1, Dst: 1, FromNs: 50, ToNs: 150, DropProb: 0.5, DelayMaxNs: 50, DupProb: 0.5},
	}}
	drop, delay, dup := fp.lossAt(0, 1, 75) // both active
	if drop != 0.75 || delay != 150 || dup != 0.5 {
		t.Fatalf("composed loss = (%v, %v, %v), want (0.75, 150, 0.5)", drop, delay, dup)
	}
	drop, delay, dup = fp.lossAt(0, 1, 25) // first only
	if drop != 0.5 || delay != 100 || dup != 0 {
		t.Fatalf("single-rule loss = (%v, %v, %v), want (0.5, 100, 0)", drop, delay, dup)
	}
	if drop, _, _ = fp.lossAt(0, 1, 150); drop != 0 {
		t.Fatalf("past both windows drop = %v, want 0", drop)
	}
	// Out-of-range probabilities clamp rather than corrupting the draw.
	hot := &FaultPlan{Losses: []LinkLoss{{Src: -1, Dst: -1, DropProb: 7}}}
	if drop, _, _ = hot.lossAt(0, 1, 0); drop != 1 {
		t.Fatalf("clamped drop = %v, want 1", drop)
	}
}

func TestFaultPlanJSONRoundTrip(t *testing.T) {
	fp := &FaultPlan{
		Seed:  0xabc,
		Kills: []FaultEvent{{PE: 3, AtNs: 42000}},
		Links: []LinkDegrade{{PE: 1, AtNs: 10, UntilNs: 20, PenaltyNs: 5}},
		Losses: []LinkLoss{
			{Src: -1, Dst: 2, FromNs: 100, ToNs: 900, DropProb: 0.25, DelayMaxNs: 1000, DupProb: 0.1},
		},
		Retry: RetryPolicy{RetryBaseNs: 2000, RetryCapNs: 16000, MaxRetries: 3},
	}
	data, err := fp.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFaultPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fp, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", fp, back)
	}
	// Replays must agree across the round trip, not just the fields.
	for seq := uint64(0); seq < 16; seq++ {
		if a, b := fp.Deliver(0, 2, seq, 500, 1900), back.Deliver(0, 2, seq, 500, 1900); a != b {
			t.Fatalf("seq %d: decoded plan replays differently", seq)
		}
	}
	if _, err := DecodeFaultPlan([]byte(`{"tyop": 1}`)); err == nil {
		t.Error("unknown field should be rejected")
	}
}

func TestRandomLossPlanDeterministic(t *testing.T) {
	a := RandomLossPlan(0x5eed, 8, 1, 10000, 60000)
	b := RandomLossPlan(0x5eed, 8, 1, 10000, 60000)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed must yield the same plan:\n%v\n%v", a, b)
	}
	if len(a.Losses) != 1 || a.Losses[0].Src != -1 || a.Losses[0].Dst != -1 {
		t.Fatalf("expected one all-links loss rule, got %+v", a.Losses)
	}
	if len(a.Kills) != 1 {
		t.Fatalf("expected one kill, got %+v", a.Kills)
	}
}

// TestIssueAtMatchesIssue: Reserve then Note — the pair that replaced the
// IssueAt callback, with the completion time left to the caller — is
// bit-identical to Issue when the caller completes at the native wire-out +
// latency, so the delivery step cannot perturb loss-free schedules. A set
// with no pipe (a blocking horizon) wires out at now and books the same way.
func TestIssueAtMatchesIssue(t *testing.T) {
	var nicA, nicB NBINic
	sa, sb := NewNBIStreams(&nicA), NewNBIStreams(&nicB)
	var blocking NBIStreams
	times := []struct{ now, tr, lat float64 }{
		{0, 100, 1900}, {50, 30, 1900}, {400, 250, 700}, {400, 0, 700},
	}
	for i, c := range times {
		a := sa.Issue(i%2, c.now, c.tr, c.lat)
		b := sb.Reserve(c.now, c.tr) + c.lat
		sb.Note(i%2, b)
		if a != b {
			t.Fatalf("op %d: Issue=%v Reserve+Note=%v", i, a, b)
		}
		if wire := blocking.Reserve(c.now, c.tr); wire != c.now {
			t.Fatalf("op %d: a set with no pipe wired out at %v, want now=%v", i, wire, c.now)
		}
		blocking.Note(i%2, c.now+c.lat)
	}
	if sa.Outstanding() != sb.Outstanding() || sa.OutstandingTarget(1) != sb.OutstandingTarget(1) {
		t.Fatalf("op counts diverge: %d/%d vs %d/%d", sa.Outstanding(), sa.OutstandingTarget(1), sb.Outstanding(), sb.OutstandingTarget(1))
	}
	if a, b := sa.Drain(), sb.Drain(); a != b || nicA.FreeAt() != nicB.FreeAt() {
		t.Fatalf("drain/pipe divergence: %v vs %v, %v vs %v", a, b, nicA.FreeAt(), nicB.FreeAt())
	}
	if got := blocking.DrainTarget(0); got != 0+1900 {
		t.Fatalf("blocking horizon toward 0 = %v, want 1900", got)
	}
	if got := blocking.Drain(); got != 50+1900 {
		t.Fatalf("blocking horizon = %v, want 1950 (target 1's)", got)
	}
}
