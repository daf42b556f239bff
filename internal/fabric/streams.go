package fabric

// Per-destination completion streams. A PE's nonblocking ops are tracked
// per destination, so completing the writes bound for one PE does not drain
// every in-flight transfer — the per-unit completion semantics DART-MPI
// showed a PGAS runtime needs to scale.
//
// What stays shared is the injection pipe: a node has one NIC, so every
// stream of a PE serialises its transfer time on the same NBINic. That makes
// the refinement observation-only in virtual time — an op's completion
// timestamp is identical whether it is tracked on one queue or on per-target
// streams (streams_test.go pins this equality against a single-horizon
// queue), and draining all streams reproduces that queue's drain exactly.
// Only the wait target changes: DrainTarget(t) returns the max completion of
// t's ops alone, which can be arbitrarily earlier than the global horizon.

// NBINic models the per-PE injection pipe shared by every completion stream
// of one PE. The zero value is an idle pipe.
type NBINic struct {
	// freeAt is when the pipe next idles. It is monotone and never reset:
	// after a full drain the caller's clock is at or past it, so keeping the
	// value is equivalent to resetting it, and after a per-target drain the
	// residual occupancy is exactly what other streams must still serialise
	// behind.
	freeAt float64
}

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
}

// NBIStreams tracks one PE's in-flight nonblocking ops per destination, all
// serialising on the PE's NBINic. The per-target list is tiny in practice (halo neighbours, a batch's owner), so linear scans beat
// any map and the backing array is reused across drains. It starts as the
// set's own first record, so a set that never has two destinations in flight
// at once allocates nothing; a set in use must therefore not be copied.
//
// The zero value is a set with no pipe: the per-destination completion
// horizon of a library's blocking puts, which charge their transfer inline
// and are booked with Note alone.
type NBIStreams struct {
	nic   *NBINic
	recs  []nbiStream
	first [1]nbiStream
}

// NewNBIStreams returns a stream set injecting through nic.
func NewNBIStreams(nic *NBINic) NBIStreams {
	return NBIStreams{nic: nic}
}

// Issue records a nonblocking op posted at virtual time now toward target,
// occupying the NIC for transferNs and becoming remotely visible latencyNs
// after leaving the pipe. It returns the op's completion timestamp.
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
			return
		}
	}
	if s.recs == nil {
		s.recs = s.first[:0]
	}
	s.recs = append(s.recs, nbiStream{target: target, doneAt: done})
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
// timestamp (0 when nothing was outstanding).
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

// Targets calls yield for each destination with in-flight ops, in first-issue
// order (deterministic — fault reports depend on it).
func (s *NBIStreams) Targets(yield func(target int)) {
	for i := range s.recs {
		yield(s.recs[i].target)
	}
}
