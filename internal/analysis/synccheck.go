package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SyncCheck flags reads of a symmetric object that can observe an incomplete
// one-sided write: a shmem Put/IPut/atomic update followed on some path by a
// Get (or other read) of the same symmetric object with no intervening
// Quiet/Fence/Barrier or collective. This is the contract of paper §IV-B —
// OpenSHMEM puts complete locally; remote visibility requires an explicit
// completion operation, which the CAF translation inserts and hand-written
// hybrid code must not forget.
//
// It additionally models the OpenSHMEM 1.3 *nonblocking* contract
// (shmem_put_nbi / shmem_get_nbi):
//
//   - Fence orders blocking puts but does NOT complete nonblocking operations;
//     only Quiet (or a barrier/collective, which quiets internally) does. A
//     read after Fence that races a PutMemNBI is still reported.
//   - The source buffer of a nonblocking put is owned by the runtime until
//     Quiet. Any write to it (assignment, ++/--, append/copy into it) before
//     the next completion point is reported as source-buffer reuse.
//
// The per-function walk is keyed by the symmetric-handle expression (for
// remote completion) or the source-buffer base expression (for NBI pinning).
// Module-local calls resolve through the interprocedural effect summaries
// (summary.go): a helper's pending creations are rebound to the caller's
// argument expressions, its completions clear the caller's state, and its
// reads of symmetric parameters report at the call site. Calls that still
// cannot be resolved (function values, non-module code, non-convergent
// recursion) conservatively count as completion points, so findings remain
// high-confidence bugs.
var SyncCheck = &Analyzer{
	Name: "synccheck",
	Doc:  "reads of symmetric data racing un-quieted one-sided writes",
	Run:  runSyncCheck,
}

// pendingWrites maps a key (symmetric-object or buffer expression) to the
// position of the oldest outstanding operation on the current path.
type pendingWrites map[string]token.Pos

func (s pendingWrites) clone() pendingWrites {
	out := make(pendingWrites, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s pendingWrites) union(o pendingWrites) {
	for k, v := range o {
		if old, ok := s[k]; !ok || v < old {
			s[k] = v
		}
	}
}

// syncState is the per-path dataflow state. The three maps have different
// completion rules, mirroring the memory model:
//
//	writes — blocking one-sided writes; completed by Quiet OR Fence (for the
//	         purposes of this checker: any completion point).
//	nbi    — nonblocking one-sided writes; completed by Quiet but NOT Fence.
//	nbiSrc — local source buffers pinned by outstanding nonblocking puts,
//	         keyed by buffer base expression; released at Quiet.
type syncState struct {
	writes pendingWrites
	nbi    pendingWrites
	nbiSrc pendingWrites
}

func newSyncState() syncState {
	return syncState{writes: pendingWrites{}, nbi: pendingWrites{}, nbiSrc: pendingWrites{}}
}

func (s syncState) clone() syncState {
	return syncState{writes: s.writes.clone(), nbi: s.nbi.clone(), nbiSrc: s.nbiSrc.clone()}
}

func (s syncState) union(o syncState) {
	s.writes.union(o.writes)
	s.nbi.union(o.nbi)
	s.nbiSrc.union(o.nbiSrc)
}

// clearAll models an opaque completion point (an indirect call or module
// helper that may quiet anything, contexts included).
func (s syncState) clearAll() {
	clear(s.writes)
	clear(s.nbi)
	clear(s.nbiSrc)
}

// clearFence models Fence: blocking puts are ordered, nonblocking operations
// remain outstanding and their source buffers stay pinned.
func (s syncState) clearFence() {
	clear(s.writes)
}

// ctxKeyPrefix namespaces an entry under a communication context, keyed by the
// receiver expression: "ctx:<recv>|<sym-or-buffer>". The 1.4 contract is that
// PE-level Quiet/Barrier never complete context ops and a context's Quiet
// never completes anyone else's, so the two key spaces clear independently.
const ctxKeyPrefix = "ctx:"

func ctxKey(recvKey, key string) string { return ctxKeyPrefix + recvKey + "|" + key }

func clearDefaultEntries(m pendingWrites) {
	for k := range m {
		if !strings.HasPrefix(k, ctxKeyPrefix) {
			delete(m, k)
		}
	}
}

func clearPrefixEntries(m pendingWrites, prefix string) {
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			delete(m, k)
		}
	}
}

// clearDefault models a PE-level completion point (Quiet, barrier,
// collective): everything on the default context completes, context-scoped
// operations stay outstanding and their source buffers stay pinned.
func (s syncState) clearDefault() {
	clearDefaultEntries(s.writes)
	clearDefaultEntries(s.nbi)
	clearDefaultEntries(s.nbiSrc)
}

// clearCtx models ctx.Quiet / ctx.Destroy for the context held in recvKey:
// only that context's entries complete.
func (s syncState) clearCtx(recvKey string) {
	prefix := ctxKey(recvKey, "")
	clearPrefixEntries(s.writes, prefix)
	clearPrefixEntries(s.nbi, prefix)
	clearPrefixEntries(s.nbiSrc, prefix)
}

// clearAnyCtx models a callee that quiets a context the caller cannot
// identify: every context-scoped entry may have completed.
func (s syncState) clearAnyCtx() {
	clearPrefixEntries(s.writes, ctxKeyPrefix)
	clearPrefixEntries(s.nbi, ctxKeyPrefix)
	clearPrefixEntries(s.nbiSrc, ctxKeyPrefix)
}

func runSyncCheck(pass *Pass) {
	pass.funcBodies(func(name string, body *ast.BlockStmt) {
		w := &syncWalker{pass: pass}
		w.walkStmt(body, newSyncState())
	})
}

// syncWalker walks one function body. In diagnose mode (sum == nil) it
// reports findings for the package under analysis. In summarize mode
// (sum != nil, driven by summary.go) diagnostics are discarded and the walker
// instead records the function's effects: paramIdx maps seeded marker keys to
// virtual parameter indices, ctxPut/ctxPin map context-scoped pending keys
// back to parameter pairs, and defc accumulates deferred completion points
// that run on every return path.
type syncWalker struct {
	pass     *Pass
	sum      *Summary
	paramIdx map[string]int
	ctxPut   map[string]ctxEffect
	ctxPin   map[string]ctxEffect
	defc     deferComp
}

// deferComp is the set of completion points among a function's deferred
// calls; they execute before the caller resumes, on every return path.
type deferComp struct {
	all, def, fence, anyCtx bool
	ctxKeys                 []string
}

func (d *deferComp) apply(st syncState) {
	if d.all {
		st.clearAll()
		return
	}
	if d.def {
		st.clearDefault()
	}
	if d.fence {
		st.clearFence()
	}
	for _, k := range d.ctxKeys {
		st.clearCtx(k)
	}
	if d.anyCtx {
		st.clearAnyCtx()
	}
}

// shmem.PE methods that issue one-sided writes needing Quiet for remote
// completion (or whose update bypasses the ordered put stream, for AMOs),
// with the index of their Sym argument.
var shmemWriteMethods = map[string]int{
	"PutMem": 1, "IPutMem": 1, "PutMemV": 1,
	"Swap": 1, "CompareSwap": 1, "FetchAdd": 1, "FetchInc": 1, "Add": 1,
	"FetchAnd": 1, "FetchOr": 1, "FetchXor": 1, "AtomicSet": 1,
}

// Package-level generic write functions, with the index of their Sym argument.
var shmemWriteFuncs = map[string]int{"Put": 2, "P": 2, "IPut": 2}

// Nonblocking write methods: Sym argument index and source-buffer argument
// index. They populate both the nbi map (remote completion) and nbiSrc
// (buffer pinning).
var shmemNBIWriteMethods = map[string][2]int{
	"PutMemNBI":  {1, 3},
	"PutMemVNBI": {1, 4},
	"IPutMemNBI": {1, 5},
}

var shmemNBIWriteFuncs = map[string][2]int{"PutNBI": {2, 4}}

// Nonblocking reads: the remote Sym they read (checked against outstanding
// writes like any read). Their *destination* buffer is undefined until Quiet,
// but local-buffer read tracking is out of scope for a handle-keyed checker.
var shmemNBIReadMethods = map[string]int{"GetMemNBI": 1, "IGetMemNBI": 1}

var shmemNBIReadFuncs = map[string]int{"GetNBI": 2}

// shmem.PE methods that read symmetric data, with their Sym argument index.
var shmemReadMethods = map[string]int{
	"GetMem": 1, "IGetMem": 1, "GetMemV": 1, "AtomicFetch": 1, "Ptr": 0,
}

var shmemReadFuncs = map[string]int{"Get": 2, "G": 2, "IGet": 2}

// shmem.PE methods that complete ALL outstanding default-context operations,
// nonblocking included — but never context-scoped ones (OpenSHMEM 1.4: a
// context is completed only by its own Quiet). Fence is deliberately absent:
// per the OpenSHMEM memory model it orders the put stream but does not
// complete put_nbi/get_nbi. QuietTarget completes one destination; the checker
// has no per-target precision, so it conservatively counts as a full quiet
// (missed bugs toward other targets, never false positives).
var shmemSyncMethods = map[string]bool{
	"Quiet": true, "QuietStat": true, "Barrier": true,
	"QuietTarget": true, "QuietTargetStat": true,
	"Malloc": true, "Free": true, "Broadcast": true,
}

var shmemSyncFuncs = map[string]bool{"ToAll": true, "FCollect": true, "Collect": true}

// shmem.PE (and related) methods with no effect on outstanding writes.
var shmemBenignMethods = map[string]bool{
	"MyPE": true, "NumPEs": true, "Clock": true, "World": true, "Pgas": true,
	"WaitUntil64": true, "SetLock": true, "ClearLock": true, "TestLock": true,
	"At": true, "IsZero": true, "NBIOutstanding": true,
}

func (w *syncWalker) walkStmt(s ast.Stmt, st syncState) syncState {
	switch x := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range x.List {
			st = w.walkStmt(sub, st)
		}
		return st
	case *ast.IfStmt:
		if x.Init != nil {
			st = w.walkStmt(x.Init, st)
		}
		w.applyExpr(x.Cond, st)
		thenSt := w.walkStmt(x.Body, st.clone())
		if x.Else != nil {
			elseSt := w.walkStmt(x.Else, st.clone())
			thenSt.union(elseSt)
			return thenSt
		}
		st.union(thenSt)
		return st
	case *ast.ForStmt:
		if x.Init != nil {
			st = w.walkStmt(x.Init, st)
		}
		w.applyExpr(x.Cond, st)
		// Two passes propagate loop-carried pending writes (a put at the
		// bottom of the body racing a read at the top of the next iteration).
		once := w.walkStmt(x.Body, st.clone())
		if x.Post != nil {
			once = w.walkStmt(x.Post, once)
		}
		once.union(st)
		twice := w.walkStmt(x.Body, once.clone())
		if x.Post != nil {
			twice = w.walkStmt(x.Post, twice)
		}
		twice.union(once)
		return twice
	case *ast.RangeStmt:
		w.applyExpr(x.X, st)
		once := w.walkStmt(x.Body, st.clone())
		once.union(st)
		twice := w.walkStmt(x.Body, once.clone())
		twice.union(once)
		return twice
	case *ast.SwitchStmt:
		if x.Init != nil {
			st = w.walkStmt(x.Init, st)
		}
		w.applyExpr(x.Tag, st)
		return w.walkCases(x.Body, st)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			st = w.walkStmt(x.Init, st)
		}
		return w.walkCases(x.Body, st)
	case *ast.SelectStmt:
		return w.walkCases(x.Body, st)
	case *ast.LabeledStmt:
		return w.walkStmt(x.Stmt, st)
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			w.applyExpr(r, st)
		}
		for _, l := range x.Lhs {
			w.applyExpr(l, st) // calls inside index expressions
			w.checkBufWrite(l, st)
		}
		return st
	case *ast.IncDecStmt:
		w.applyExpr(x.X, st)
		w.checkBufWrite(x.X, st)
		return st
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.applyExpr(r, st)
		}
		w.noteReturn(st)
		return st
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred calls run at return, goroutines concurrently: neither
		// completes writes at this program point. Argument evaluation happens
		// now, though.
		if d, ok := x.(*ast.DeferStmt); ok {
			for _, a := range d.Call.Args {
				w.applyExpr(a, st)
			}
		} else if g, ok := x.(*ast.GoStmt); ok {
			for _, a := range g.Call.Args {
				w.applyExpr(a, st)
			}
		}
		return st
	case nil:
		return st
	default:
		w.applyExpr(x, st)
		return st
	}
}

func (w *syncWalker) walkCases(body *ast.BlockStmt, st syncState) syncState {
	merged := st.clone() // the no-case-taken path
	for _, c := range body.List {
		caseSt := st.clone()
		switch cl := c.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.applyExpr(e, caseSt)
			}
			for _, sub := range cl.Body {
				caseSt = w.walkStmt(sub, caseSt)
			}
		case *ast.CommClause:
			if cl.Comm != nil {
				caseSt = w.walkStmt(cl.Comm, caseSt)
			}
			for _, sub := range cl.Body {
				caseSt = w.walkStmt(sub, caseSt)
			}
		}
		merged.union(caseSt)
	}
	return merged
}

// applyExpr applies the effects of every call inside n to st, in order.
func (w *syncWalker) applyExpr(n ast.Node, st syncState) {
	stmtCalls(n, func(call *ast.CallExpr) { w.applyCall(call, st) })
}

func (w *syncWalker) applyCall(call *ast.CallExpr, st syncState) {
	pass := w.pass
	fn := pass.callee(call)
	if fn == nil {
		// Type conversion or builtin: no effect — except the mutating
		// builtins, which count as writes to their destination buffer.
		// Anything else unresolved is an indirect call that could complete
		// writes — assume it does.
		if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				if (id.Name == "copy" || id.Name == "clear") && len(call.Args) > 0 {
					w.checkBufWrite(call.Args[0], st)
				}
				return
			}
		}
		w.clearAll(st)
		return
	}

	onPE := isMethodOf(fn, shmemPath, "PE", fn.Name()) || isMethodOf(fn, shmemPath, "Sym", fn.Name())
	onCtx := isMethodOf(fn, shmemPath, "Ctx", fn.Name())
	pkgFunc := fn.Pkg() != nil && fn.Pkg().Path() == shmemPath && recvNamed(fn) == nil

	switch {
	case onPE && shmemWriteMethods[fn.Name()] > 0:
		w.recordWrite(call, shmemWriteMethods[fn.Name()], st.writes)
	case pkgFunc && shmemWriteFuncs[fn.Name()] > 0:
		w.recordWrite(call, shmemWriteFuncs[fn.Name()], st.writes)
	case onPE && fn.Name() == "PutSignal":
		// Put-with-signal delivers payload (arg 1) and flag word (arg 4) in
		// one visibility event. Completion is signal-mediated for the
		// *awaiter*; for the origin both objects stay outstanding until
		// Quiet, exactly like PutMem.
		w.recordWrite(call, 1, st.writes)
		w.recordWrite(call, 4, st.writes)
	case onPE && fn.Name() == "PutSignalNBI":
		// Fused nonblocking data+signal: payload (arg 1) and flag word (arg 4)
		// complete together at Quiet; the payload buffer (arg 3) stays pinned.
		w.recordWrite(call, 1, st.nbi)
		w.recordWrite(call, 4, st.nbi)
		w.recordNBISrc(call, 3, st)
	case onCtx:
		w.applyCtxCall(call, fn.Name(), st)
	case onPE && isNBIWriteMethod(fn.Name()):
		args := shmemNBIWriteMethods[fn.Name()]
		w.recordWrite(call, args[0], st.nbi)
		w.recordNBISrc(call, args[1], st)
	case pkgFunc && isNBIWriteFunc(fn.Name()):
		args := shmemNBIWriteFuncs[fn.Name()]
		w.recordWrite(call, args[0], st.nbi)
		w.recordNBISrc(call, args[1], st)
	case onPE && shmemNBIReadMethods[fn.Name()] > 0:
		w.checkRead(call, shmemNBIReadMethods[fn.Name()], st)
	case pkgFunc && shmemNBIReadFuncs[fn.Name()] > 0:
		w.checkRead(call, shmemNBIReadFuncs[fn.Name()], st)
	case onPE && fn.Name() == "Ptr":
		w.checkRead(call, 0, st)
	case onPE && shmemReadMethods[fn.Name()] > 0:
		w.checkRead(call, shmemReadMethods[fn.Name()], st)
	case pkgFunc && shmemReadFuncs[fn.Name()] > 0:
		w.checkRead(call, shmemReadFuncs[fn.Name()], st)
	case onPE && fn.Name() == "Fence":
		w.clearFence(st)
	case onPE && shmemSyncMethods[fn.Name()]:
		w.clearDefault(st)
	case pkgFunc && shmemSyncFuncs[fn.Name()]:
		w.clearDefault(st)
	case onPE || pkgFunc:
		// Rest of the modelled shmem PE surface (WaitUntil64, locks,
		// accessors): no effect on the caller's outstanding writes.
	default:
		w.applyUnknown(call, fn, st)
	}
}

// applyUnknown handles a resolved call outside the modelled shmem API: a
// module-local function is seen through via its effect summary; a module call
// without one (interface method without a body, or no Program) conservatively
// counts as a completion point for everything, contexts included.
func (w *syncWalker) applyUnknown(call *ast.CallExpr, fn *types.Func, st syncState) {
	if fn.Pkg() == nil {
		return // universe-scope methods (error.Error)
	}
	if sum := w.pass.summaryOf(fn); sum != nil {
		w.applySummary(call, fn, sum, st)
		return
	}
	path := fn.Pkg().Path()
	if shmemBenignMethods[fn.Name()] && path == shmemPath {
		return
	}
	if (w.pass.Pkg.Types != nil && fn.Pkg() == w.pass.Pkg.Types) || isModulePath(path) {
		w.clearAll(st)
		return
	}
	// Standard library: cannot touch the communication layer.
}

// applySummary applies a summarized callee's effects to the caller's state:
// first its reads of caller-pending objects (checked against the pre-call
// state), then its completion points, then the pending operations it leaves
// outstanding, mapped through the call's arguments.
func (w *syncWalker) applySummary(call *ast.CallExpr, fn *types.Func, sum *Summary, st syncState) {
	via := fn.Name()
	for _, e := range sum.ReadsSym {
		if arg := argForParam(call, e.Param); arg != nil {
			w.checkSymRead(call.Pos(), arg, st, via)
		}
	}
	for _, e := range sum.WritesBuf {
		if arg := argForParam(call, e.Param); arg != nil {
			w.checkBufWriteVia(call.Pos(), arg, st, via)
		}
	}
	if sum.CompletesAll {
		w.clearAll(st)
		return
	}
	if sum.QuietsDefault {
		w.clearDefault(st)
	}
	if sum.Fences {
		w.clearFence(st)
	}
	for _, e := range sum.QuietsCtx {
		if arg := argForParam(call, e.Param); arg != nil {
			w.clearCtxKey(w.pass.exprKey(arg), st)
		}
	}
	if sum.QuietsAnyCtx {
		w.clearAnyCtx(st)
	}
	for _, e := range sum.PutsBlocking {
		if arg := argForParam(call, e.Param); arg != nil {
			w.recordPending(w.pass.exprKey(arg), call.Pos(), st.writes)
		}
	}
	for _, e := range sum.PutsNBI {
		if arg := argForParam(call, e.Param); arg != nil {
			w.recordPending(w.pass.exprKey(arg), call.Pos(), st.nbi)
		}
	}
	for _, e := range sum.PinsNBISrc {
		if arg := argForParam(call, e.Param); arg != nil {
			if base := bufBase(arg); base != nil {
				w.recordPending(w.pass.exprKey(base), call.Pos(), st.nbiSrc)
			}
		}
	}
	for _, e := range sum.PutsCtx {
		ctxArg, objArg := argForParam(call, e.CtxParam), argForParam(call, e.ObjParam)
		if ctxArg != nil && objArg != nil {
			w.recordCtxPending(w.pass.exprKey(ctxArg), w.pass.exprKey(objArg), call.Pos(), st.nbi, false)
		}
	}
	for _, e := range sum.PinsCtxSrc {
		ctxArg, objArg := argForParam(call, e.CtxParam), argForParam(call, e.ObjParam)
		if ctxArg == nil || objArg == nil {
			continue
		}
		if base := bufBase(objArg); base != nil {
			w.recordCtxPending(w.pass.exprKey(ctxArg), w.pass.exprKey(base), call.Pos(), st.nbiSrc, true)
		}
	}
	if sum.CreatesUnmapped && w.sum != nil {
		w.sum.CreatesUnmapped = true
	}
}

// Completion wrappers: clear caller state and, in summarize mode, record the
// completion point in the summary. Recording a may-completion can only mask
// findings in callers, never invent them.

func (w *syncWalker) clearAll(st syncState) {
	if w.sum != nil {
		w.sum.CompletesAll = true
	}
	st.clearAll()
}

func (w *syncWalker) clearDefault(st syncState) {
	if w.sum != nil {
		w.sum.QuietsDefault = true
	}
	st.clearDefault()
}

func (w *syncWalker) clearFence(st syncState) {
	if w.sum != nil {
		w.sum.Fences = true
	}
	st.clearFence()
}

func (w *syncWalker) clearCtxKey(recvKey string, st syncState) {
	if w.sum != nil {
		if i, ok := w.paramIdx[recvKey]; ok {
			w.sum.QuietsCtx = append(w.sum.QuietsCtx, effect{Param: i, Pos: token.NoPos})
		} else {
			w.sum.QuietsAnyCtx = true
		}
	}
	st.clearCtx(recvKey)
}

func (w *syncWalker) clearAnyCtx(st syncState) {
	if w.sum != nil {
		w.sum.QuietsAnyCtx = true
	}
	st.clearAnyCtx()
}

// noteReturn harvests, in summarize mode, the pending operations still
// outstanding at a return point — after applying deferred completions — into
// the summary, mapped back to parameters where possible.
func (w *syncWalker) noteReturn(st syncState) {
	if w.sum == nil {
		return
	}
	end := st.clone()
	w.defc.apply(end)
	harvest := func(m pendingWrites, plain func(i int, pos token.Pos), ctxm map[string]ctxEffect, ctx func(ctxEffect)) {
		for k, pos := range m {
			if _, isMarker := markerParam(pos); isMarker {
				continue // the caller's own pre-existing pending state
			}
			if strings.HasPrefix(k, ctxKeyPrefix) {
				if e, ok := ctxm[k]; ok && e.CtxParam >= 0 && e.ObjParam >= 0 && ctx != nil {
					ctx(e)
				} else {
					w.sum.CreatesUnmapped = true
				}
				continue
			}
			if i, ok := w.paramIdx[k]; ok {
				plain(i, pos)
			} else {
				w.sum.CreatesUnmapped = true
			}
		}
	}
	harvest(end.writes, func(i int, pos token.Pos) {
		w.sum.PutsBlocking = append(w.sum.PutsBlocking, effect{Param: i, Pos: pos})
	}, nil, nil)
	harvest(end.nbi, func(i int, pos token.Pos) {
		w.sum.PutsNBI = append(w.sum.PutsNBI, effect{Param: i, Pos: pos})
	}, w.ctxPut, func(e ctxEffect) {
		w.sum.PutsCtx = append(w.sum.PutsCtx, e)
	})
	harvest(end.nbiSrc, func(i int, pos token.Pos) {
		w.sum.PinsNBISrc = append(w.sum.PinsNBISrc, effect{Param: i, Pos: pos})
	}, w.ctxPin, func(e ctxEffect) {
		w.sum.PinsCtxSrc = append(w.sum.PinsCtxSrc, e)
	})
}

// collectDeferredCompletions records the completion effects of every deferred
// call in body (outside nested function literals, whose defers are their
// own). A deferred completion the walker cannot resolve counts as completing
// everything — the masking direction.
func (w *syncWalker) collectDeferredCompletions(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if fl, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
			// defer func() { ... }(): the literal's statements run at return.
			ast.Inspect(fl.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					w.deferCompletionOf(call)
				}
				return true
			})
			return true
		}
		w.deferCompletionOf(d.Call)
		return true
	})
}

func (w *syncWalker) deferCompletionOf(call *ast.CallExpr) {
	pass := w.pass
	fn := pass.callee(call)
	if fn == nil {
		if tv, ok := pass.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
				return
			}
		}
		w.defc.all = true
		if w.sum != nil {
			w.sum.CompletesAll = true
		}
		return
	}
	onPE := isMethodOf(fn, shmemPath, "PE", fn.Name())
	switch {
	case onPE && shmemSyncMethods[fn.Name()]:
		w.defc.def = true
		if w.sum != nil {
			w.sum.QuietsDefault = true
		}
	case onPE && fn.Name() == "Fence":
		w.defc.fence = true
		if w.sum != nil {
			w.sum.Fences = true
		}
	case isMethodOf(fn, shmemPath, "Ctx", fn.Name()):
		switch fn.Name() {
		case "Quiet", "QuietStat", "QuietTarget", "Destroy":
			rk := w.ctxRecvKey(call)
			w.defc.ctxKeys = append(w.defc.ctxKeys, rk)
			if w.sum != nil {
				if i, ok := w.paramIdx[rk]; ok {
					w.sum.QuietsCtx = append(w.sum.QuietsCtx, effect{Param: i, Pos: token.NoPos})
				} else {
					w.sum.QuietsAnyCtx = true
				}
			}
		}
	case fn.Pkg() == nil || onPE:
	default:
		if sum := pass.summaryOf(fn); sum != nil {
			if sum.CompletesAll {
				w.defc.all = true
			}
			if sum.QuietsDefault {
				w.defc.def = true
			}
			if sum.Fences {
				w.defc.fence = true
			}
			if sum.QuietsAnyCtx || len(sum.QuietsCtx) > 0 {
				w.defc.anyCtx = true
			}
			if w.sum != nil {
				w.sum.CompletesAll = w.sum.CompletesAll || sum.CompletesAll
				w.sum.QuietsDefault = w.sum.QuietsDefault || sum.QuietsDefault
				w.sum.Fences = w.sum.Fences || sum.Fences
				w.sum.QuietsAnyCtx = w.sum.QuietsAnyCtx || sum.QuietsAnyCtx || len(sum.QuietsCtx) > 0
			}
			return
		}
		if (pass.Pkg.Types != nil && fn.Pkg() == pass.Pkg.Types) || isModulePath(fn.Pkg().Path()) {
			w.defc.all = true
			if w.sum != nil {
				w.sum.CompletesAll = true
			}
		}
	}
}

// applyCtxCall applies the effect of a shmem.Ctx method. Context writes live
// under composite keys so only the owning context's Quiet releases them.
func (w *syncWalker) applyCtxCall(call *ast.CallExpr, name string, st syncState) {
	rk := w.ctxRecvKey(call)
	switch name {
	case "PutMemNBI": // (target, sym, off, data)
		w.recordCtxWrite(call, 1, rk, st.nbi)
		w.recordCtxNBISrc(call, 3, rk, st)
	case "PutSignalNBI": // (target, sym, off, data, sig, sigIdx, sigVal)
		w.recordCtxWrite(call, 1, rk, st.nbi)
		w.recordCtxWrite(call, 4, rk, st.nbi)
		w.recordCtxNBISrc(call, 3, rk, st)
	case "GetMemNBI": // (target, sym, off, dst)
		w.checkRead(call, 1, st)
	case "Quiet", "QuietStat", "QuietTarget", "Destroy":
		// QuietTarget completes one destination; without per-target precision
		// it conservatively counts as the context's full quiet.
		w.clearCtxKey(rk, st)
	default:
		// Fence (ordering only), PE, Outstanding: no completion effect.
	}
}

// ctxRecvKey keys a context by its receiver expression; an unresolvable
// receiver collapses to one shared key (distinct contexts then alias, which
// can only mask findings, never invent them — a quiet on one clears both).
func (w *syncWalker) ctxRecvKey(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return w.pass.exprKey(sel.X)
	}
	return "?"
}

func (w *syncWalker) recordCtxWrite(call *ast.CallExpr, symArg int, recvKey string, m pendingWrites) {
	if symArg >= len(call.Args) {
		return
	}
	w.recordCtxPending(recvKey, w.pass.exprKey(call.Args[symArg]), call.Pos(), m, false)
}

func (w *syncWalker) recordCtxNBISrc(call *ast.CallExpr, srcArg int, recvKey string, st syncState) {
	if srcArg >= len(call.Args) {
		return
	}
	base := bufBase(call.Args[srcArg])
	if base == nil {
		return
	}
	w.recordCtxPending(recvKey, w.pass.exprKey(base), call.Pos(), st.nbiSrc, true)
}

// recordCtxPending records a context-scoped pending entry and, in summarize
// mode, remembers the (ctx, object) parameter mapping so noteReturn can map
// the entry back to the caller's arguments.
func (w *syncWalker) recordCtxPending(recvKey, objKey string, pos token.Pos, m pendingWrites, pin bool) {
	full := ctxKey(recvKey, objKey)
	if old, ok := m[full]; !ok || old < 0 {
		m[full] = pos
	}
	if w.sum == nil {
		return
	}
	eff := ctxEffect{CtxParam: -1, ObjParam: -1, Pos: pos}
	if i, ok := w.paramIdx[recvKey]; ok {
		eff.CtxParam = i
	}
	if i, ok := w.paramIdx[objKey]; ok {
		eff.ObjParam = i
	}
	if pin {
		w.ctxPin[full] = eff
	} else {
		w.ctxPut[full] = eff
	}
}

// findCtxEntry finds an outstanding context-scoped entry for plain key k
// (stored as "ctx:<recv>|<k>") regardless of which context issued it.
func findCtxEntry(m pendingWrites, k string) (token.Pos, bool) {
	suffix := "|" + k
	for key, pos := range m {
		if strings.HasPrefix(key, ctxKeyPrefix) && strings.HasSuffix(key, suffix) {
			return pos, true
		}
	}
	return 0, false
}

func isNBIWriteMethod(name string) bool { _, ok := shmemNBIWriteMethods[name]; return ok }
func isNBIWriteFunc(name string) bool   { _, ok := shmemNBIWriteFuncs[name]; return ok }

func isModulePath(path string) bool {
	return path == "cafshmem" || len(path) > len("cafshmem/") && path[:len("cafshmem/")] == "cafshmem/"
}

func (w *syncWalker) recordWrite(call *ast.CallExpr, symArg int, m pendingWrites) {
	if symArg >= len(call.Args) {
		return
	}
	w.recordPending(w.pass.exprKey(call.Args[symArg]), call.Pos(), m)
}

// recordPending records a pending operation, keeping the oldest real
// position but always displacing a parameter marker (a real put on a
// parameter must be harvested as a create, not skipped as caller state).
func (w *syncWalker) recordPending(key string, pos token.Pos, m pendingWrites) {
	if old, ok := m[key]; !ok || old < 0 {
		m[key] = pos
	}
}

// recordNBISrc pins the source buffer of a nonblocking put, keyed by the
// buffer's base expression so that a later write to buf[i] or buf matches a
// put of buf[2:6].
func (w *syncWalker) recordNBISrc(call *ast.CallExpr, srcArg int, st syncState) {
	if srcArg >= len(call.Args) {
		return
	}
	base := bufBase(call.Args[srcArg])
	if base == nil {
		return
	}
	w.recordPending(w.pass.exprKey(base), call.Pos(), st.nbiSrc)
}

// bufBase strips slicing/indexing/parens down to the underlying buffer
// expression, or nil for literals and calls (nothing addressable to reuse).
func bufBase(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident, *ast.SelectorExpr:
			return e
		default:
			return nil
		}
	}
}

// checkBufWrite reports a mutation of a buffer still pinned by an outstanding
// nonblocking put.
func (w *syncWalker) checkBufWrite(lhs ast.Expr, st syncState) {
	w.checkBufWriteVia(lhs.Pos(), lhs, st, "")
}

// checkBufWriteVia is checkBufWrite with an optional callee name: via != ""
// reports a summarized callee's write to the caller's pinned buffer argument.
func (w *syncWalker) checkBufWriteVia(pos token.Pos, lhs ast.Expr, st syncState, via string) {
	base := bufBase(lhs)
	if base == nil {
		return
	}
	key := w.pass.exprKey(base)
	subject := "write to"
	if via != "" {
		subject = "call to " + via + " writes"
	}
	if putPos, ok := st.nbiSrc[key]; ok {
		if w.noteMarkerWrite(putPos, pos) {
			return
		}
		w.pass.Reportf(pos, "%s NBI source buffer %s before Quiet completes the nonblocking put at line %d",
			subject, types.ExprString(base), w.pass.Pkg.Fset.Position(putPos).Line)
		return
	}
	if putPos, ok := findCtxEntry(st.nbiSrc, key); ok {
		w.pass.Reportf(pos, "%s NBI source buffer %s before the owning context's Quiet completes the nonblocking put at line %d",
			subject, types.ExprString(base), w.pass.Pkg.Fset.Position(putPos).Line)
	}
}

func (w *syncWalker) checkRead(call *ast.CallExpr, symArg int, st syncState) {
	if symArg >= len(call.Args) {
		return
	}
	w.checkSymRead(call.Pos(), call.Args[symArg], st, "")
}

// checkSymRead checks a read of sym against the outstanding-write state. In
// summarize mode a hit on a parameter marker records a ReadsSym/WritesBuf
// effect instead of a diagnostic. via != "" attributes the read to a
// summarized callee.
func (w *syncWalker) checkSymRead(pos token.Pos, sym ast.Expr, st syncState, via string) {
	key := w.pass.exprKey(sym)
	subject := "read of"
	if via != "" {
		subject = "call to " + via + " reads"
	}
	if putPos, ok := st.writes[key]; ok {
		if w.noteMarkerRead(putPos, pos) {
			return
		}
		w.pass.Reportf(pos, "%s %s before completing the one-sided write at line %d (missing Quiet/Fence/Barrier)",
			subject, types.ExprString(sym), w.pass.Pkg.Fset.Position(putPos).Line)
		return
	}
	if putPos, ok := st.nbi[key]; ok {
		if w.noteMarkerRead(putPos, pos) {
			return
		}
		w.pass.Reportf(pos, "%s %s before completing the nonblocking write at line %d (missing Quiet)",
			subject, types.ExprString(sym), w.pass.Pkg.Fset.Position(putPos).Line)
		return
	}
	if putPos, ok := findCtxEntry(st.nbi, key); ok {
		w.pass.Reportf(pos, "%s %s before the owning context completes its nonblocking write at line %d (PE-level Quiet/Barrier never completes context ops)",
			subject, types.ExprString(sym), w.pass.Pkg.Fset.Position(putPos).Line)
	}
}

// noteMarkerRead records a read of a still-pending parameter in summarize
// mode; reports true when putPos was a marker (no diagnostic wanted).
func (w *syncWalker) noteMarkerRead(putPos, readPos token.Pos) bool {
	i, isMarker := markerParam(putPos)
	if !isMarker {
		return false
	}
	if w.sum != nil {
		w.sum.ReadsSym = append(w.sum.ReadsSym, effect{Param: i, Pos: readPos})
	}
	return true
}

func (w *syncWalker) noteMarkerWrite(putPos, writePos token.Pos) bool {
	i, isMarker := markerParam(putPos)
	if !isMarker {
		return false
	}
	if w.sum != nil {
		w.sum.WritesBuf = append(w.sum.WritesBuf, effect{Param: i, Pos: writePos})
	}
	return true
}
