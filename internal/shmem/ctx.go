package shmem

import (
	"cafshmem/internal/fabric"
	"cafshmem/internal/pgas"
)

// Communication contexts — shmem_ctx_create / shmem_ctx_quiet (OpenSHMEM 1.4
// §9.4). A context is an independent completion environment: nonblocking ops
// issued on it are completed only by *its* Quiet, never by the PE-level
// Quiet/Barrier, and vice versa. That lets a program quiesce one traffic
// class (say, one neighbour's ghost plane) without waiting for unrelated
// in-flight transfers.
//
// In the virtual-time model every context owns its own fabric.NBIStreams but
// all of a PE's contexts share the PE's single NIC injection pipe
// (fabric.NBINic), so contexts change *what a Quiet waits for*, never *when
// bytes move*: op-for-op completion times are identical to a single shared
// queue (see fabric/streams_test.go), which keeps the blocking path and all
// PR 4 figures bit-identical.
//
// A Ctx is valid only on the goroutine of the PE that created it, like the PE
// handle itself (OpenSHMEM contexts are private by default).

// Ctx is a communication context: one created by CtxCreate, or the default
// context every PE-level call is issued on.
type Ctx struct {
	pe *PE
	// id scopes the context's ops in the sanitizer (0 is the default
	// context, so created contexts number from 1).
	id int
	// nbi tracks the context's in-flight nonblocking ops, one completion
	// stream per destination on the PE's pipe: issue charges only the
	// injection overhead; Quiet drains all streams and merges the latest
	// completion, QuietTarget drains one destination's stream only.
	nbi fabric.NBIStreams
	// blocking is the latest remote-visibility time, per destination, of the
	// blocking puts issued since the last Quiet: the virtual analogue of the
	// NIC's outstanding operation queue, a stream set with no pipe. Only the
	// default context has blocking entry points, so a created context's
	// stays empty.
	blocking  fabric.NBIStreams
	destroyed bool
}

func (c *Ctx) check() {
	if c.destroyed {
		panic("shmem: use of a destroyed context")
	}
}

// CtxCreate creates a communication context (shmem_ctx_create). The context
// shares the PE's NIC injection pipe but owns its own completion streams and
// Quiet. Destroy it with Ctx.Destroy when done; a context with ops still in
// flight at Finalize is reported by the sanitizer as an nbi-leak.
func (pe *PE) CtxCreate() *Ctx {
	pe.ctxSeq++
	return &Ctx{pe: pe, id: pe.ctxSeq, nbi: fabric.NewNBIStreams(&pe.nic)}
}

// Destroy quiesces and releases the context (shmem_ctx_destroy — which per
// the spec implies a quiet on the context). Further use panics.
func (c *Ctx) Destroy() {
	c.check()
	c.Quiet()
	c.destroyed = true
}

// PE returns the PE this context was created on.
func (c *Ctx) PE() *PE { return c.pe }

// PutMemNBI starts a nonblocking contiguous put on this context
// (shmem_ctx_putmem_nbi). The source buffer must stay unmodified until this
// context's Quiet — the PE-level Quiet does not complete it.
func (c *Ctx) PutMemNBI(target int, sym Sym, off int64, data []byte) {
	c.check()
	c.issue(&pgas.RMA{Target: target, Off: off, Local: data}, sym, nbi, data)
}

// GetMemNBI starts a nonblocking contiguous get on this context
// (shmem_ctx_getmem_nbi). dst is undefined until this context's Quiet.
func (c *Ctx) GetMemNBI(target int, sym Sym, off int64, dst []byte) {
	c.check()
	c.issue(&pgas.RMA{Get: true, Target: target, Off: off, Local: dst}, sym, nbi, nil)
}

// PutSignalNBI is the context-scoped fused data+signal put: data and the
// 8-byte signal travel as one nonblocking injection on this context's stream
// toward target, so a consumer that observes the signal (SignalWaitUntil)
// sees every transfer this context previously streamed to it.
func (c *Ctx) PutSignalNBI(target int, sym Sym, off int64, data []byte, sig Sym, sigIdx int, sigVal int64) {
	c.check()
	c.putSignal(nbi, target, sym, off, data, sig, sigIdx, sigVal)
}

// Quiet completes all ops issued on this context (shmem_ctx_quiet) — and
// nothing else: the default context's streams, the blocking horizon, and
// other contexts all stay in flight. Like the PE-level Quiet it is a legacy
// escalation point: destinations given up after retry exhaustion
// error-terminate here (QuietStat reports them instead).
func (c *Ctx) Quiet() { c.quiet(true) }

// quiet is Quiet, one call deep for the runtimes that quiet after every put;
// the stat forms, which report a given-up destination, pass escalate false.
// With nothing nonblocking outstanding the streams drain to 0 and the blocking
// path is bit-identical to the pre-NBI model.
func (c *Ctx) quiet(escalate bool) {
	c.check()
	c.complete(c.nbi.Drain(), c.blocking.Drain())
	if san := c.pe.world.san; san != nil {
		san.quiesceCtx(c.pe.p.ID, c.id)
	}
	if escalate {
		c.pe.checkReachable()
	}
}

// complete charges a completion call's overhead and waits for the later of
// the nonblocking and the blocking horizon it drained.
func (c *Ctx) complete(nbi, blocking float64) {
	clock := &c.pe.p.Clock
	clock.Advance(c.pe.world.prof.OverheadNs)
	clock.MergeAtLeast(max(nbi, blocking))
}

// QuietTarget completes this context's ops toward one destination only; the
// context's other destinations stay in flight: their completion horizon, and
// the shared NIC pipe's residual occupancy, are untouched. A later Quiet
// still waits for every other destination — per-target completion never
// relaxes the blocking path. Like Quiet it is a legacy escalation point, for
// this destination only: a link to target given up after retry exhaustion
// error-terminates here (the PE's QuietTargetStat reports it instead).
func (c *Ctx) QuietTarget(target int) {
	c.quietTarget(target)
	c.pe.checkReachableTarget(target)
}

// quietTarget is QuietTarget's drain, shared with QuietTargetStat (which must
// not escalate — it reports).
func (c *Ctx) quietTarget(target int) {
	c.check()
	c.pe.checkTarget(target)
	c.complete(c.nbi.DrainTarget(target), c.blocking.DrainTarget(target))
	if san := c.pe.world.san; san != nil {
		san.quiesceTarget(c.pe.p.ID, c.id, target)
	}
}

// QuietStat is Quiet with fault status: when any destination with in-flight
// ops on this context has failed, the drain still completes and the fault is
// returned. It completes exactly what Quiet completes — this context's
// streams only — so the stat and non-stat forms always agree.
// Destinations the PE has declared unreachable are folded in like failed
// PEs, as in the PE-level QuietStat.
func (c *Ctx) QuietStat() error {
	c.check()
	var failed []int // in first-issue order
	c.nbi.Targets(func(t int) {
		if c.pe.observedFailed(t) {
			failed = append(failed, t)
		}
	})
	c.quiet(false)
	return c.pe.unreachFault(failed)
}

// Fence orders this context's puts per destination (shmem_ctx_fence). Like
// the PE-level Fence it is weaker than Quiet — ordering, not completion —
// and it is per-context: it says nothing about ops on other contexts, which
// is exactly why it stays a method on Ctx rather than draining the shared
// NIC. The substrate applies writes in issue order per target already, so
// only the call overhead is charged.
func (c *Ctx) Fence() {
	c.check()
	c.pe.p.Clock.Advance(c.pe.world.prof.OverheadNs)
}

// Outstanding returns the number of ops in flight on this context.
func (c *Ctx) Outstanding() int { return c.nbi.Outstanding() }
