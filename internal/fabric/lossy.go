package fabric

// Lossy-fabric fault model: deterministic message-level faults (drop, delay
// jitter, duplication) and the virtual-time ack/retransmit protocol the
// runtime layers run over links named by a LinkLoss rule.
//
// Everything here is a pure function of (plan seed, src, dst, sequence
// number, attempt): no host randomness, no wall-clock. A chaos run with a
// given plan therefore replays bit-identically — the same messages drop on
// the same attempts, the same retransmits fire at the same virtual times,
// and the same links exhaust their retries — which is what lets `-race`
// replay runs assert float64-equal results.
//
// The protocol models what a runtime layered over an unreliable interconnect
// (e.g. a mesh NoC with no hardware delivery guarantee) must implement in
// software: positive acks, capped exponential backoff, retransmission, and
// receiver-side duplicate suppression so the application still observes
// exactly-once delivery.

import (
	"bytes"
	"encoding/json"
)

// LinkLoss schedules message-level faults on a directed link. Src/Dst select
// the link (-1 is a wildcard matching every PE); the rule is active for
// messages whose wire-out time t satisfies FromNs <= t, and t < ToNs when
// ToNs > 0 (ToNs == 0 leaves the episode open-ended). Several active rules
// on one link combine: drop and duplication probabilities compose as
// independent events, delay bounds add.
type LinkLoss struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
	// FromNs/ToNs bound the fault episode in virtual time.
	FromNs float64 `json:"from_ns,omitempty"`
	ToNs   float64 `json:"to_ns,omitempty"`
	// DropProb is the probability an individual packet (data or ack) is
	// lost; 1 severs the link for the window.
	DropProb float64 `json:"drop_prob,omitempty"`
	// DelayMaxNs adds uniform jitter in [0, DelayMaxNs) to each surviving
	// data packet's flight time.
	DelayMaxNs float64 `json:"delay_max_ns,omitempty"`
	// DupProb is the probability the fabric duplicates a surviving data
	// packet; the receiver suppresses the copy, but it is counted.
	DupProb float64 `json:"dup_prob,omitempty"`
}

// matches reports whether the rule names the directed link src->dst.
func (l *LinkLoss) matches(src, dst int) bool {
	return (l.Src == -1 || l.Src == src) && (l.Dst == -1 || l.Dst == dst)
}

// activeAt reports whether the rule's episode covers virtual time t.
func (l *LinkLoss) activeAt(t float64) bool {
	if t < l.FromNs {
		return false
	}
	return l.ToNs == 0 || t < l.ToNs
}

// RetryPolicy configures the ack/retransmit protocol on lossy links. The
// zero value selects the defaults below. RetryBaseNs should exceed the
// link's loss-free round trip (a few microseconds in the machine models);
// a smaller base still terminates but produces spurious retransmits that
// the receiver suppresses as duplicates — exactly a mis-tuned RTO.
type RetryPolicy struct {
	// RetryBaseNs is the first retransmission timeout; attempt k waits
	// min(RetryBaseNs << k, RetryCapNs) before retransmitting.
	RetryBaseNs float64 `json:"retry_base_ns,omitempty"`
	// RetryCapNs caps the exponential backoff.
	RetryCapNs float64 `json:"retry_cap_ns,omitempty"`
	// MaxRetries is the number of retransmissions after the original send;
	// when the final attempt's timeout expires unacked the sender declares
	// the destination unreachable.
	MaxRetries int `json:"max_retries,omitempty"`
}

// Retry protocol defaults: base comfortably above the inter-node round trip
// of every machine model, six retransmissions before declaring the peer
// unreachable (with the capped backoff that bounds a doomed message's
// lifetime to ~0.3 ms of virtual time).
const (
	DefaultRetryBaseNs = 8000.0
	DefaultRetryCapNs  = 64000.0
	DefaultMaxRetries  = 6
)

// norm fills zero fields with the defaults.
func (rp RetryPolicy) norm() RetryPolicy {
	if rp.RetryBaseNs <= 0 {
		rp.RetryBaseNs = DefaultRetryBaseNs
	}
	if rp.RetryCapNs <= 0 {
		rp.RetryCapNs = DefaultRetryCapNs
	}
	if rp.MaxRetries <= 0 {
		rp.MaxRetries = DefaultMaxRetries
	}
	return rp
}

// rto returns attempt k's retransmission timeout (capped exponential).
func (rp RetryPolicy) rto(attempt int) float64 {
	t := rp.RetryBaseNs
	for i := 0; i < attempt; i++ {
		t *= 2
		if t >= rp.RetryCapNs {
			return rp.RetryCapNs
		}
	}
	if t > rp.RetryCapNs {
		return rp.RetryCapNs
	}
	return t
}

// Delivery is the outcome of running the reliability protocol for one
// message. All times are virtual nanoseconds.
type Delivery struct {
	// Delivered reports whether any attempt's data packet arrived;
	// DeliveredNs is the arrival time of the first one that did — the
	// instant the payload becomes remotely visible.
	Delivered   bool
	DeliveredNs float64
	// Acked reports whether the sender received an ack before exhausting
	// its retries; AckedNs is the earliest ack arrival — the op's
	// sender-side completion time (what Quiet waits for).
	Acked   bool
	AckedNs float64
	// GaveUpNs is the final attempt's timeout expiry when !Acked: the
	// virtual time the sender declares the destination unreachable.
	GaveUpNs float64
	// Forensic counters: attempts sent, data packets dropped, acks
	// dropped, and duplicates the receiver had to suppress (fabric
	// duplication plus retransmits of already-delivered data).
	Attempts int
	Drops    int
	AckDrops int
	Dups     int
}

// Retries returns the number of retransmissions (attempts beyond the first).
func (d Delivery) Retries() int {
	if d.Attempts <= 1 {
		return 0
	}
	return d.Attempts - 1
}

// LossyPair reports whether any loss rule names the directed link src->dst,
// regardless of episode windows. The reliability protocol engages for every
// message on such a link (the window then decides which messages actually
// fault); unlisted links keep the native reliable path, so a plan with no
// Losses leaves all virtual times bit-identical to a nil plan.
func (fp *FaultPlan) LossyPair(src, dst int) bool {
	if fp == nil || src == dst {
		return false
	}
	for i := range fp.Losses {
		if fp.Losses[i].matches(src, dst) {
			return true
		}
	}
	return false
}

// lossAt combines the rules active on src->dst at virtual time t into one
// (drop, delayMax, dup) triple. Probabilities of independent rules compose
// as 1 - prod(1-p); delay bounds add.
func (fp *FaultPlan) lossAt(src, dst int, t float64) (drop, delayMax, dup float64) {
	keepData, keepDup := 1.0, 1.0
	for i := range fp.Losses {
		l := &fp.Losses[i]
		if !l.matches(src, dst) || !l.activeAt(t) {
			continue
		}
		keepData *= 1 - clamp01(l.DropProb)
		keepDup *= 1 - clamp01(l.DupProb)
		delayMax += l.DelayMaxNs
	}
	return 1 - keepData, delayMax, 1 - keepDup
}

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Per-draw salts decorrelate the fault dice of one attempt.
const (
	saltDrop uint64 = 0xd1
	saltJit  uint64 = 0xd2
	saltDup  uint64 = 0xd3
	saltAck  uint64 = 0xd4
)

// roll draws a deterministic uniform in [0,1) for one fault decision. The
// chain mixes every identity component through splitmix64 so neighbouring
// (src, dst, seq, attempt) tuples decorrelate.
func (fp *FaultPlan) roll(src, dst int, seq uint64, attempt int, salt uint64) float64 {
	x := splitmix64(fp.Seed ^ salt)
	x = splitmix64(x + uint64(src))
	x = splitmix64(x + uint64(dst))
	x = splitmix64(x + seq)
	x = splitmix64(x + uint64(attempt))
	return float64(x>>11) / float64(1<<53)
}

// Deliver runs the ack/retransmit protocol for one message: sequence number
// seq on the directed link src->dst, first wired out at sendNs, with a
// loss-free one-way flight time of latencyNs (both legs).
//
// Attempt k leaves at s_k (s_0 = sendNs, s_{k+1} = s_k + rto(k)). Its data
// packet is dropped with the link's drop probability at s_k; a surviving
// packet arrives at s_k + latencyNs plus uniform jitter in [0, delayMax).
// The receiver acks on arrival; the ack leg is dropped independently with
// the same probability. The sender completes at the earliest ack that has
// arrived by some attempt's deadline, and retransmits at each deadline with
// no ack in hand. After MaxRetries retransmissions the final timeout expiry
// is GaveUpNs and the destination is unreachable — even if an ack is still
// in flight past that deadline (Delivered may hold without Acked: the write
// landed but the sender cannot know, so it must fail the link).
func (fp *FaultPlan) Deliver(src, dst int, seq uint64, sendNs, latencyNs float64) Delivery {
	pol := fp.Retry.norm()
	var d Delivery
	s := sendNs
	ackAt, haveAck := 0.0, false
	for attempt := 0; ; attempt++ {
		d.Attempts++
		drop, delayMax, dup := fp.lossAt(src, dst, s)
		if fp.roll(src, dst, seq, attempt, saltDrop) < drop {
			d.Drops++
		} else {
			arrive := s + latencyNs
			if delayMax > 0 {
				arrive += fp.roll(src, dst, seq, attempt, saltJit) * delayMax
			}
			if !d.Delivered {
				d.Delivered, d.DeliveredNs = true, arrive
			} else {
				// A retransmit of data the receiver already has: it is
				// suppressed by sequence number but still acked, since the
				// original ack may be the packet that was lost.
				d.Dups++
			}
			if dup > 0 && fp.roll(src, dst, seq, attempt, saltDup) < dup {
				d.Dups++
			}
			if fp.roll(src, dst, seq, attempt, saltAck) < drop {
				d.AckDrops++
			} else if a := arrive + latencyNs; !haveAck || a < ackAt {
				ackAt, haveAck = a, true
			}
		}
		deadline := s + pol.rto(attempt)
		if haveAck && ackAt <= deadline {
			d.Acked, d.AckedNs = true, ackAt
			return d
		}
		if attempt >= pol.MaxRetries {
			d.GaveUpNs = deadline
			return d
		}
		s = deadline
	}
}

// DecodeFaultPlan parses a plan for CLI replay (-faultplan), as encoding/json
// writes it (field names are the json tags on FaultPlan and its parts) or as
// written by hand. Unknown fields are rejected so a typoed knob fails loudly instead
// of silently running a different experiment.
func DecodeFaultPlan(data []byte) (*FaultPlan, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	fp := &FaultPlan{}
	if err := dec.Decode(fp); err != nil {
		return nil, err
	}
	return fp, nil
}

// RandomLossPlan draws a reproducible combined chaos plan from seed: the
// kills of RandomPlan plus one all-links loss episode over [minNs, maxNs)
// with moderate drop/jitter/duplication. It is the -faultseed default for
// the CLI benches.
func RandomLossPlan(seed uint64, npes, kills int, minNs, maxNs float64) *FaultPlan {
	fp := RandomPlan(seed, npes, kills, minNs, maxNs)
	fp.Losses = append(fp.Losses, LinkLoss{
		Src: -1, Dst: -1,
		FromNs: minNs, ToNs: maxNs,
		DropProb:   0.2,
		DelayMaxNs: 3000,
		DupProb:    0.05,
	})
	return fp
}
