package analysis

import (
	"go/ast"
	"go/types"
	"reflect"
)

// callgraph.go is the interprocedural half of the engine: a module-local
// call graph over every package the Loader has type-checked, topologically
// ordered by strongly-connected component, over which summary.go computes
// per-function effect summaries bottom-up (callees before callers). The
// paper's completion contract (§IV-B) is a whole-program property — a put is
// outstanding until *somebody* quiets, across any number of helper frames —
// so the analyzers consult these summaries instead of treating every
// module-local call as an opaque completion point.
//
// Precision boundaries, all falling back to the conservative "may complete
// anything, creates nothing" opaque summary (which can only mask findings,
// never invent them):
//
//   - indirect calls through function values and interface methods;
//   - function literals that escape their defining function (a literal's own
//     body is still analyzed for its own diagnostics by funcBodies);
//   - recursion: members of a non-trivial SCC iterate to a fixpoint from the
//     opaque assumption, and the whole SCC falls back to opaque if the
//     fixpoint does not settle within a few rounds.

// A Program is the interprocedural view over a Loader: the call graph and
// the effect summaries of every function whose body the loader has parsed.
type Program struct {
	l     *Loader
	built int // number of loader packages at the last build

	decls     map[*types.Func]*declSite
	order     []*types.Func // deterministic declaration order
	summaries map[*types.Func]*Summary
}

// declSite is one function declaration with a body.
type declSite struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl
}

// NewProgram creates the interprocedural view over l. Summaries are
// (re)computed lazily on first use and whenever the loader has type-checked
// new packages since the last build.
func NewProgram(l *Loader) *Program {
	return &Program{l: l}
}

// Summary returns fn's effect summary, or nil when fn's body is unknown
// (external code, interface methods).
func (p *Program) Summary(fn *types.Func) *Summary {
	p.ensure()
	return p.summaries[fn]
}

// Decl returns the declaration site of fn, or nil when unknown.
func (p *Program) Decl(fn *types.Func) *declSite {
	p.ensure()
	return p.decls[fn]
}

// LockEdges returns the union of every summarized function's lock-order
// edges (deadlockcheck's raw material).
func (p *Program) LockEdges() []lockEdge {
	p.ensure()
	var out []lockEdge
	for _, fn := range p.order {
		out = append(out, p.summaries[fn].LockEdges...)
	}
	return out
}

// ensure (re)builds the call graph and all summaries if the loader has
// type-checked packages since the last build.
func (p *Program) ensure() {
	pkgs := p.l.Packages()
	if p.built == len(pkgs) {
		return
	}
	p.built = len(pkgs)
	p.decls = map[*types.Func]*declSite{}
	p.order = nil
	p.summaries = map[*types.Func]*Summary{}

	for _, pkg := range pkgs {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.decls[fn] = &declSite{fn: fn, pkg: pkg, decl: fd}
				p.order = append(p.order, fn)
			}
		}
	}

	// Static call edges, restricted to functions with known bodies. Calls
	// inside nested literals and defers are included: extra edges can only
	// merge SCCs, which is the conservative direction.
	edges := map[*types.Func][]*types.Func{}
	for _, fn := range p.order {
		site := p.decls[fn]
		seen := map[*types.Func]bool{}
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeFunc(site.pkg.Info, call); callee != nil && !seen[callee] {
				if _, known := p.decls[callee]; known {
					seen[callee] = true
					edges[fn] = append(edges[fn], callee)
				}
			}
			return true
		})
	}

	// Tarjan SCCs emerge in reverse topological order (callees before
	// callers), exactly the order summary computation wants.
	for _, scc := range tarjanSCC(p.order, edges) {
		p.summarizeSCC(scc, edges)
	}
}

// summarizeSCC computes summaries for one strongly-connected component.
// Singleton components without self-recursion summarize directly; recursive
// components start from the opaque assumption for each member and iterate to
// a conservative fixpoint, reverting to opaque if it does not settle.
func (p *Program) summarizeSCC(scc []*types.Func, edges map[*types.Func][]*types.Func) {
	if len(scc) == 1 && !hasEdge(edges, scc[0], scc[0]) {
		p.summaries[scc[0]] = p.summarize(scc[0])
		return
	}
	for _, fn := range scc {
		p.summaries[fn] = opaqueSummary()
	}
	const maxRounds = 4
	for round := 0; ; round++ {
		if round == maxRounds {
			for _, fn := range scc {
				p.summaries[fn] = opaqueSummary()
			}
			return
		}
		changed := false
		for _, fn := range scc {
			s := p.summarize(fn)
			if !reflect.DeepEqual(s, p.summaries[fn]) {
				p.summaries[fn] = s
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

func hasEdge(edges map[*types.Func][]*types.Func, from, to *types.Func) bool {
	for _, f := range edges[from] {
		if f == to {
			return true
		}
	}
	return false
}

// tarjanSCC returns the strongly-connected components of the call graph in
// reverse topological order (every component precedes its callers). The
// iterative formulation keeps deep call chains off the Go stack.
func tarjanSCC(nodes []*types.Func, edges map[*types.Func][]*types.Func) [][]*types.Func {
	index := map[*types.Func]int{}
	lowlink := map[*types.Func]int{}
	onStack := map[*types.Func]bool{}
	var stack []*types.Func
	var sccs [][]*types.Func
	next := 0

	type frame struct {
		fn *types.Func
		ei int // next edge index to explore
	}
	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{fn: root}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.fn
			if f.ei == 0 {
				index[v] = next
				lowlink[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.ei < len(edges[v]) {
				w := edges[v][f.ei]
				f.ei++
				if _, seen := index[w]; !seen {
					work = append(work, frame{fn: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < lowlink[v] {
					lowlink[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			// v is finished: pop it, fold its lowlink into the parent.
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].fn
				if lowlink[v] < lowlink[parent] {
					lowlink[parent] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				var scc []*types.Func
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == v {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
