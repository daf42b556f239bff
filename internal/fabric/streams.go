package fabric

// Per-destination completion streams (OpenSHMEM 1.4 communication contexts).
//
// PR 4's NBIQueue tracks one completion horizon per PE: Quiet waits for the
// latest outstanding op regardless of destination. Contexts refine that into
// one stream per (context, target) pair, so completing the writes bound for
// one PE no longer drains every in-flight transfer — the per-unit completion
// semantics DART-MPI showed a PGAS runtime needs to scale.
//
// What stays shared is the injection pipe: a node has one NIC, so every
// stream of every context serialises its transfer time on the same NBINic.
// That makes the refinement *observation-only* in virtual time — an op's
// completion timestamp is identical whether it is tracked on one queue or on
// per-target streams (streams_test.go pins this equality), and draining all
// streams reproduces NBIQueue.Drain exactly. Only the wait target changes:
// DrainTarget(t) returns the max completion of t's ops alone, which can be
// arbitrarily earlier than the global horizon.

// NBINic models the per-PE injection pipe shared by every completion stream
// (and every context) of one PE. The zero value is an idle pipe.
type NBINic struct {
	// freeAt is when the pipe next idles. It is monotone and never reset:
	// after a full drain the caller's clock is at or past it, so keeping the
	// value is equivalent to NBIQueue's reset-to-zero, and after a partial
	// (per-target or per-context) drain the residual occupancy is exactly
	// what other streams must still serialise behind.
	freeAt float64
}

// FreeAt reports when the pipe next idles (observability: tests replay issue
// schedules against the profile arithmetic using it).
func (n *NBINic) FreeAt() float64 { return n.freeAt }

// Reserve claims the pipe for transferNs starting no earlier than now and
// returns the wire-out time — when the op's last byte leaves the NIC.
func (n *NBINic) Reserve(now, transferNs float64) float64 {
	start := now
	if n.freeAt > start {
		start = n.freeAt
	}
	n.freeAt = start + transferNs
	return n.freeAt
}

// nbiStream is one per-target completion record.
type nbiStream struct {
	target int
	doneAt float64
	count  int
}

// NBIStreams tracks one PE's (or one context's) in-flight nonblocking ops
// per destination, all serialising on a shared NBINic. The per-target list is
// tiny in practice (halo neighbours, a batch's owner), so linear scans beat
// any map and the backing array is reused across drains. It starts as the
// set's own first record, so a set that never has two destinations in flight
// at once allocates nothing; a set in use must therefore not be copied.
//
// The zero value is a set with no pipe: the per-destination completion
// horizon of a library's blocking puts, which charge their transfer inline
// and are booked with Note alone. It is kept apart from the NBI set, whose
// counts the libraries report.
type NBIStreams struct {
	nic   *NBINic
	recs  []nbiStream
	first [1]nbiStream
}

// NewNBIStreams returns a stream set injecting through nic. Several stream
// sets (the default context and every created context of a PE) may share one
// nic.
func NewNBIStreams(nic *NBINic) NBIStreams {
	return NBIStreams{nic: nic}
}

// Issue records a nonblocking op posted at virtual time now toward target,
// occupying the NIC for transferNs and becoming remotely visible latencyNs
// after leaving the pipe. It returns the op's completion timestamp. The pipe
// recurrence is identical to NBIQueue.Issue.
func (s *NBIStreams) Issue(target int, now, transferNs, latencyNs float64) float64 {
	done := s.nic.Reserve(now, transferNs) + latencyNs
	s.Note(target, done)
	return done
}

// Reserve claims the set's pipe exactly as Issue does and returns the
// wire-out time; a set with no pipe wires out at now. Reserve then Note is
// Issue with the completion time left to the caller: on a lossy link an op
// completes at its ack, not at wire-out + latency, but it occupies the shared
// pipe like any other op.
func (s *NBIStreams) Reserve(now, transferNs float64) float64 {
	if s.nic == nil {
		return now
	}
	return s.nic.Reserve(now, transferNs)
}

// Note books an op completing at done on target's stream.
func (s *NBIStreams) Note(target int, done float64) {
	for i := range s.recs {
		if s.recs[i].target == target {
			if done > s.recs[i].doneAt {
				s.recs[i].doneAt = done
			}
			s.recs[i].count++
			return
		}
	}
	if s.recs == nil {
		s.recs = s.first[:0]
	}
	s.recs = append(s.recs, nbiStream{target: target, doneAt: done, count: 1})
}

// DrainTarget completes the stream toward target only: it returns the latest
// completion timestamp of that target's outstanding ops (0 when none) and
// forgets them. Other targets' streams — and the shared pipe occupancy —
// are untouched.
func (s *NBIStreams) DrainTarget(target int) float64 {
	for i := range s.recs {
		if s.recs[i].target == target {
			d := s.recs[i].doneAt
			s.recs = append(s.recs[:i], s.recs[i+1:]...)
			return d
		}
	}
	return 0
}

// Drain completes every stream and returns the latest outstanding completion
// timestamp (0 when nothing was outstanding) — exactly NBIQueue.Drain over
// the same issue sequence.
func (s *NBIStreams) Drain() float64 {
	var d float64
	for i := range s.recs {
		if s.recs[i].doneAt > d {
			d = s.recs[i].doneAt
		}
	}
	s.recs = s.recs[:0]
	return d
}

// Outstanding returns the number of ops in flight across all streams.
func (s *NBIStreams) Outstanding() int {
	n := 0
	for i := range s.recs {
		n += s.recs[i].count
	}
	return n
}

// OutstandingTarget returns the number of ops in flight toward target.
func (s *NBIStreams) OutstandingTarget(target int) int {
	for i := range s.recs {
		if s.recs[i].target == target {
			return s.recs[i].count
		}
	}
	return 0
}

// Targets calls yield for each destination with in-flight ops, in first-issue
// order (deterministic — fault reports depend on it).
func (s *NBIStreams) Targets(yield func(target int)) {
	for i := range s.recs {
		yield(s.recs[i].target)
	}
}

// Horizon peeks at the latest outstanding completion timestamp across all
// streams without draining anything (0 when nothing is outstanding) — the
// value Drain would return, left in place.
//
// A completion horizon is *computed* at issue time from the pipe recurrence,
// never awaited, so no PE ever sleeps on quiet — Quiet merges the horizon into
// the clock and moves on; a PE sleeps only in barriers and watch waits. These
// accessors are what observability layers and tests use to read the horizons
// without perturbing them.
func (s *NBIStreams) Horizon() float64 {
	var d float64
	for i := range s.recs {
		if s.recs[i].doneAt > d {
			d = s.recs[i].doneAt
		}
	}
	return d
}

// HorizonTarget peeks at the latest outstanding completion timestamp toward
// target without draining it (0 when none) — DrainTarget's value, left in
// place.
func (s *NBIStreams) HorizonTarget(target int) float64 {
	for i := range s.recs {
		if s.recs[i].target == target {
			return s.recs[i].doneAt
		}
	}
	return 0
}
