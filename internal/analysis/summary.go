package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// summary.go defines the per-function effect summary — the element of the
// effects lattice callgraph.go computes bottom-up over SCCs. A summary
// answers, for one function, the questions each analyzer would otherwise
// answer "unknown, assume the worst" at every module-local call:
//
//   - synccheck: which pending one-sided operations does a call create
//     (blocking put / NBI put / context put, mapped to the caller's argument
//     expressions through parameter indices), which completion points does it
//     execute (PE-level quiet, fence, a context's quiet), and which symmetric
//     arguments does it read without first completing them?
//   - lockcheck: which locks does it acquire and leave held, which does it
//     release on behalf of the caller?
//   - collectivecheck: which collectives does it execute unconditionally?
//   - deadlockcheck: which signal/event waits and notifies does it perform,
//     and which lock-order edges does it induce?
//
// Parameter mapping uses virtual indices: 0 is the method receiver, 1..N the
// declared parameters. An effect on an object that is not a parameter (a
// struct field, a local allocation) is recorded unmapped: the caller cannot
// key it, so keyed checks ignore it — the conservative, false-positive-free
// direction.

// markerPos encodes virtual parameter index i as a negative token.Pos so the
// sync walker can seed the pending maps with "the caller may have a pending
// write on this parameter" markers and tell them apart from real put sites.
func markerPos(i int) token.Pos { return token.Pos(-(i + 1)) }

func markerParam(p token.Pos) (int, bool) {
	if p >= 0 {
		return 0, false
	}
	return int(-p) - 1, true
}

// effect is a parameter-mapped effect site.
type effect struct {
	Param int // virtual parameter index; -1 = unmapped
	Pos   token.Pos
}

// ctxEffect maps a context-scoped effect: the *Ctx parameter plus the object
// parameter (a Sym for puts, a source buffer for pins).
type ctxEffect struct {
	CtxParam int
	ObjParam int
	Pos      token.Pos
}

// lockEffect is a net lock acquisition or release escaping a function.
type lockEffect struct {
	LockParam int    // virtual index of the lock object; -1 = unmapped
	ImgParam  int    // virtual index of the image/index argument; -1 = constant or unmapped
	ImgConst  string // exprKey rendering when the image argument is constant ("" = unmapped)
	Must      bool   // effect occurs on every path (vs. only some)
	Canon     string // cross-function lock identity ("" when not canonicalizable)
	Pos       token.Pos
}

// lockEdge is a lock-order edge: while holding From, the code acquires To.
// Both endpoints are canonical lock identities.
type lockEdge struct {
	From, To         string
	FromPos, ToPos   token.Pos
	FromName, ToName string // human-readable lock names for diagnostics
}

// collEffect is a collective executed unconditionally by a function.
type collEffect struct {
	Name string
	Pos  token.Pos
}

// syncEffect is a signal-class wait or notify. Classes pair a wait with the
// notifies that can satisfy it: "caf.Signal", "caf.Event", "shmem.signal"
// (put-with-signal, AMOs, WaitUntil-family), and "syncimages".
type syncEffect struct {
	Class string
	Pos   token.Pos
}

// Summary is one function's effect summary.
type Summary struct {
	// CompletesAll marks a call to something unresolvable inside: the
	// function may complete any outstanding operation, contexts included —
	// the pre-interprocedural model of every module-local call.
	CompletesAll bool

	// Completion points executed on at least one path. Clearing caller state
	// on a may-completion can only mask findings, never invent them.
	QuietsDefault bool     // PE-level quiet/barrier/collective
	Fences        bool     // fence: blocking puts only
	QuietsCtx     []effect // quiets the context passed as this parameter
	QuietsAnyCtx  bool     // quiets a context the caller cannot identify

	// Pending operations possibly still outstanding when the function
	// returns, keyed by parameter.
	PutsBlocking    []effect
	PutsNBI         []effect
	PinsNBISrc      []effect
	PutsCtx         []ctxEffect
	PinsCtxSrc      []ctxEffect
	CreatesUnmapped bool // pending op on a non-parameter object at return

	// Reads of symmetric parameters (and writes to buffer parameters) that
	// can observe caller-pending state: not preceded by a completion point on
	// every path through the function.
	ReadsSym  []effect
	WritesBuf []effect

	// Net lock effects visible to the caller.
	Acquires   []lockEffect
	Releases   []lockEffect
	HasLockOps bool // any lock operation inside (gates lockcheck's walker)
	LockEdges  []lockEdge

	// Collectives executed unconditionally (not under any local branch).
	Collectives []collEffect

	// Signal-class waits and notifies, including transitive ones.
	Waits    []syncEffect
	Notifies []syncEffect
}

// opaqueSummary is the pre-interprocedural assumption: may complete
// anything, creates nothing the caller can track.
func opaqueSummary() *Summary {
	return &Summary{CompletesAll: true, CreatesUnmapped: true}
}

// summaryAnalyzer is the synthetic analyzer identity used for summarize-mode
// passes; their diagnostics are discarded.
var summaryAnalyzer = &Analyzer{Name: "summary", Doc: "internal summary computation"}

// virtualParams returns fn's parameters under virtual indexing: slot 0 is
// the receiver (nil for package-level functions), slots 1..N the parameters.
func virtualParams(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := []*types.Var{sig.Recv()}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// paramObjKey renders a parameter object exactly as writeExprKey renders an
// identifier resolving to it, so seeded marker keys match use sites.
func paramObjKey(v *types.Var) string {
	return v.Name() + "@" + itoa(int(v.Pos()))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// argForParam resolves a virtual parameter index of the callee to the
// caller-side expression carrying that argument, or nil.
func argForParam(call *ast.CallExpr, idx int) ast.Expr {
	if idx == 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	if idx >= 1 && idx-1 < len(call.Args) {
		return call.Args[idx-1]
	}
	return nil
}

func isSymVar(v *types.Var) bool { return isSymType(v.Type()) }
func isCtxVar(v *types.Var) bool { return isCtxType(v.Type()) }
func isSliceVar(v *types.Var) bool {
	_, ok := v.Type().Underlying().(*types.Slice)
	return ok
}

func isCtxType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Ctx" && obj.Pkg() != nil && obj.Pkg().Path() == shmemPath
}

// summarize computes fn's summary from its body, consulting the summaries
// already computed for its callees (in-SCC callees read whatever the current
// fixpoint round holds).
func (p *Program) summarize(fn *types.Func) *Summary {
	site := p.decls[fn]
	if site == nil {
		return nil
	}
	s := &Summary{}
	pass := &Pass{Analyzer: summaryAnalyzer, Pkg: site.pkg, Prog: p}
	summarizeSync(pass, site, s)
	summarizeLocks(pass, site, s)
	summarizeCollectives(pass, site, s)
	summarizeSyncEffects(pass, site, s)
	normalizeSummary(s)
	return s
}

// summarizeSync runs the sync walker in summarize mode: parameter markers
// seeded into the pending maps, effects recorded instead of reported.
func summarizeSync(pass *Pass, site *declSite, s *Summary) {
	w := &syncWalker{pass: pass, sum: s, paramIdx: map[string]int{}, ctxPut: map[string]ctxEffect{}, ctxPin: map[string]ctxEffect{}}
	st := newSyncState()
	for i, v := range virtualParams(site.fn) {
		if v == nil || v.Name() == "" || v.Name() == "_" {
			continue
		}
		k := paramObjKey(v)
		w.paramIdx[k] = i
		if isSymVar(v) {
			st.writes[k] = markerPos(i)
			st.nbi[k] = markerPos(i)
		}
		if isSliceVar(v) {
			st.nbiSrc[k] = markerPos(i)
		}
	}
	w.collectDeferredCompletions(site.decl.Body)
	end := w.walkStmt(site.decl.Body, st)
	w.noteReturn(end)
}

// summarizeCollectives records collectives executed unconditionally — at
// statement nesting depth zero, outside any branch or loop — either directly
// or through a callee whose summary exposes them.
func summarizeCollectives(pass *Pass, site *declSite, s *Summary) {
	cw := &collWalker{pass: pass}
	var visit func(stmts []ast.Stmt)
	record := func(name string, pos token.Pos) {
		for _, c := range s.Collectives {
			if c.Name == name {
				return
			}
		}
		if len(s.Collectives) < 8 {
			s.Collectives = append(s.Collectives, collEffect{Name: name, Pos: pos})
		}
	}
	visit = func(stmts []ast.Stmt) {
		for _, st := range stmts {
			switch x := st.(type) {
			case *ast.BlockStmt:
				visit(x.List)
			case *ast.LabeledStmt:
				visit([]ast.Stmt{x.Stmt})
			case *ast.ExprStmt, *ast.AssignStmt, *ast.ReturnStmt, *ast.DeclStmt, *ast.IncDecStmt:
				stmtCalls(st, func(call *ast.CallExpr) {
					if name, ok := cw.collectiveName(call); ok {
						record(name, call.Pos())
						return
					}
					if fn := pass.callee(call); fn != nil {
						if sum := pass.summaryOf(fn); sum != nil {
							for _, c := range sum.Collectives {
								record(c.Name, call.Pos())
							}
						}
					}
				})
			default:
				// Branches, loops, defers, selects: conditional territory.
			}
		}
	}
	visit(site.decl.Body.List)
}

// summarizeSyncEffects collects signal-class waits and notifies: direct API
// calls plus the transitive effects of resolved callees. Notifies inside
// escaping function literals are included (they can only mask findings);
// waits inside literals are excluded (the literal might never run).
func summarizeSyncEffects(pass *Pass, site *declSite, s *Summary) {
	collectSyncEffects(pass, site.decl.Body, true,
		func(e syncEffect) { s.Waits = appendSyncEffect(s.Waits, e) },
		func(e syncEffect) { s.Notifies = appendSyncEffect(s.Notifies, e) })
}

func appendSyncEffect(list []syncEffect, e syncEffect) []syncEffect {
	for _, have := range list {
		if have.Class == e.Class {
			return list
		}
	}
	if len(list) >= 8 {
		return list
	}
	return append(list, e)
}

// collectSyncEffects walks body for wait/notify effects. When skipLitWaits
// is true, waits found inside nested function literals are dropped.
func collectSyncEffects(pass *Pass, body ast.Node, skipLitWaits bool, wait, notify func(syncEffect)) {
	var walk func(n ast.Node, inLit bool)
	walk = func(n ast.Node, inLit bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				walk(fl.Body, true)
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.callee(call)
			if fn == nil {
				return true
			}
			ws, ns := syncEffectsOfCall(pass, fn, call)
			for _, e := range ns {
				notify(e)
			}
			if !(inLit && skipLitWaits) {
				for _, e := range ws {
					wait(e)
				}
			}
			return true
		})
	}
	walk(body, false)
}

// syncEffectsOfCall classifies one resolved call's wait/notify effects:
// the direct API surface plus the callee's summarized (transitive) effects.
func syncEffectsOfCall(pass *Pass, fn *types.Func, call *ast.CallExpr) (waits, notifies []syncEffect) {
	pos := call.Pos()
	name := fn.Name()
	switch {
	case isMethodOf(fn, shmemPath, "PE", name):
		switch name {
		case "PutSignal", "PutSignalNBI", "AtomicSet", "Add", "FetchAdd", "FetchInc",
			"Swap", "CompareSwap", "FetchAnd", "FetchOr", "FetchXor":
			notifies = append(notifies, syncEffect{Class: "shmem.signal", Pos: pos})
		case "WaitUntil64", "SignalWaitUntil", "WaitUntilStat":
			waits = append(waits, syncEffect{Class: "shmem.signal", Pos: pos})
		default:
			// Any one-sided write can satisfy a wait_until spinning on the
			// written word (the canonical put+quiet / wait_until ping-pong),
			// so every put counts as a generic-signal producer.
			if shmemWriteMethods[name] > 0 || isNBIWriteMethod(name) {
				notifies = append(notifies, syncEffect{Class: "shmem.signal", Pos: pos})
			}
		}
	case fn.Pkg() != nil && fn.Pkg().Path() == shmemPath && recvNamed(fn) == nil:
		if shmemWriteFuncs[name] > 0 || isNBIWriteFunc(name) {
			notifies = append(notifies, syncEffect{Class: "shmem.signal", Pos: pos})
		}
	case isMethodOf(fn, shmemPath, "Ctx", name):
		if name == "PutSignalNBI" || name == "PutMemNBI" {
			notifies = append(notifies, syncEffect{Class: "shmem.signal", Pos: pos})
		}
	case isMethodOf(fn, cafPath, "Signal", name):
		switch name {
		case "Notify":
			notifies = append(notifies, syncEffect{Class: "caf.Signal", Pos: pos})
		case "Wait", "WaitStat":
			waits = append(waits, syncEffect{Class: "caf.Signal", Pos: pos})
		}
	case isMethodOf(fn, cafPath, "Coarray", name):
		if name == "PutSignalAsync" || name == "PutFullSignalAsync" {
			notifies = append(notifies, syncEffect{Class: "caf.Signal", Pos: pos})
		} else if len(name) >= 3 && name[:3] == "Put" {
			// Coarray puts land in partner memory like any one-sided write.
			notifies = append(notifies, syncEffect{Class: "shmem.signal", Pos: pos})
		}
	case isMethodOf(fn, cafPath, "Event", name):
		switch name {
		case "Post":
			notifies = append(notifies, syncEffect{Class: "caf.Event", Pos: pos})
		case "Wait":
			waits = append(waits, syncEffect{Class: "caf.Event", Pos: pos})
		}
	case isMethodOf(fn, cafPath, "Image", name):
		if name == "SyncImages" || name == "SyncImagesStat" {
			waits = append(waits, syncEffect{Class: "syncimages", Pos: pos})
			notifies = append(notifies, syncEffect{Class: "syncimages", Pos: pos})
		}
	default:
		if sum := pass.summaryOf(fn); sum != nil {
			for _, e := range sum.Waits {
				waits = append(waits, syncEffect{Class: e.Class, Pos: pos})
			}
			for _, e := range sum.Notifies {
				notifies = append(notifies, syncEffect{Class: e.Class, Pos: pos})
			}
		}
	}
	return waits, notifies
}

// notifySatisfies reports whether a notify of class n can satisfy a wait of
// class w. The generic shmem-level signal machinery (AMOs, put-with-signal)
// backs every higher-level primitive except the counted syncimages protocol.
func notifySatisfies(w, n string) bool {
	if w == n {
		return true
	}
	if w == "syncimages" || n == "syncimages" {
		return false
	}
	return n == "shmem.signal" || w == "shmem.signal"
}

// normalizeSummary sorts and dedupes the summary's slices so fixpoint
// comparison (reflect.DeepEqual) is order-insensitive.
func normalizeSummary(s *Summary) {
	sortEffects := func(es []effect) []effect {
		sort.Slice(es, func(i, j int) bool {
			if es[i].Param != es[j].Param {
				return es[i].Param < es[j].Param
			}
			return es[i].Pos < es[j].Pos
		})
		out := es[:0]
		for i, e := range es {
			if i > 0 && e.Param == es[i-1].Param {
				continue
			}
			out = append(out, e)
		}
		return out
	}
	s.PutsBlocking = sortEffects(s.PutsBlocking)
	s.PutsNBI = sortEffects(s.PutsNBI)
	s.PinsNBISrc = sortEffects(s.PinsNBISrc)
	s.ReadsSym = sortEffects(s.ReadsSym)
	s.WritesBuf = sortEffects(s.WritesBuf)
	s.QuietsCtx = sortEffects(s.QuietsCtx)
	sort.Slice(s.PutsCtx, func(i, j int) bool {
		a, b := s.PutsCtx[i], s.PutsCtx[j]
		if a.CtxParam != b.CtxParam {
			return a.CtxParam < b.CtxParam
		}
		return a.ObjParam < b.ObjParam
	})
	sort.Slice(s.PinsCtxSrc, func(i, j int) bool {
		a, b := s.PinsCtxSrc[i], s.PinsCtxSrc[j]
		if a.CtxParam != b.CtxParam {
			return a.CtxParam < b.CtxParam
		}
		return a.ObjParam < b.ObjParam
	})
	sort.Slice(s.Waits, func(i, j int) bool { return s.Waits[i].Class < s.Waits[j].Class })
	sort.Slice(s.Notifies, func(i, j int) bool { return s.Notifies[i].Class < s.Notifies[j].Class })
	sort.Slice(s.Collectives, func(i, j int) bool { return s.Collectives[i].Name < s.Collectives[j].Name })
	sort.Slice(s.LockEdges, func(i, j int) bool {
		a, b := s.LockEdges[i], s.LockEdges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	sort.Slice(s.Acquires, func(i, j int) bool {
		a, b := s.Acquires[i], s.Acquires[j]
		if a.LockParam != b.LockParam {
			return a.LockParam < b.LockParam
		}
		return a.ImgParam < b.ImgParam
	})
	sort.Slice(s.Releases, func(i, j int) bool {
		a, b := s.Releases[i], s.Releases[j]
		if a.LockParam != b.LockParam {
			return a.LockParam < b.LockParam
		}
		return a.ImgParam < b.ImgParam
	})
}
