// Package analysis is a self-contained static-analysis engine for the PGAS
// API contracts this repository is built on. The paper's mapping of CAF onto
// OpenSHMEM (§IV) rests on a handful of rules that the compiler cannot check
// for us — one-sided puts are only remotely visible after quiet/barrier,
// lock acquire/release must pair on every path, collectives must be called by
// every PE, and symmetric handles are only meaningful within the world that
// allocated them. Each rule is encoded as an Analyzer; cmd/shmemvet drives
// them over the module's packages.
//
// The engine uses only the standard library (go/ast, go/parser, go/types):
// module-local imports are type-checked from source and standard-library
// imports go through the compiler's source importer, so no third-party
// analysis framework is required.
//
// Diagnostics are heuristic but tuned to report only patterns that are
// wrong with high confidence. The analyzers see through module-local calls
// via per-function effect summaries computed over the module call graph
// (callgraph.go, summary.go); anything unresolvable stays conservative. A
// "//shmemvet:allow <analyzer>" comment ("shmemvet:ignore" is an alias) on
// (or immediately above) a line suppresses its findings — used where a
// runtime layer legitimately breaks a surface rule (e.g. the CAF transport
// viewing the whole partition as one Sym).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer checks one PGAS API contract.
type Analyzer struct {
	Name string // short name used in reports and suppression comments
	Doc  string // one-line description
	Run  func(*Pass)
}

// Pass carries one package through one analyzer. Prog, when non-nil, gives
// the analyzer the interprocedural view (callgraph.go): per-function effect
// summaries that let it see through module-local calls instead of treating
// them as opaque completion points. A nil Prog degrades every analyzer to its
// original intraprocedural behaviour.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Prog     *Program
	diags    []Diagnostic
}

// summaryOf returns the effect summary for fn, or nil when fn's body is
// unknown to the program (external code, interface methods, no Program).
func (p *Pass) summaryOf(fn *types.Func) *Summary {
	if p.Prog == nil || fn == nil {
		return nil
	}
	return p.Prog.Summary(fn)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer in the suite.
func All() []*Analyzer {
	return []*Analyzer{SyncCheck, LockCheck, CollectiveCheck, SymCheck, DeadlockCheck}
}

// RunAnalyzers applies the analyzers to the package and returns the findings
// that survive suppression comments, sorted by position. prog supplies the
// interprocedural summaries; nil runs the analyzers intraprocedurally.
func RunAnalyzers(prog *Program, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	allowed := suppressions(pkg)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog}
		a.Run(pass)
		for _, d := range pass.diags {
			if allowed[suppKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
				allowed[suppKey{d.Pos.Filename, d.Pos.Line, "all"}] {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Deduplicate: path-sensitive walkers (e.g. the loop double-pass in
	// synccheck) can report the same site once per pass.
	dedup := out[:0]
	for i, d := range out {
		if i > 0 && d == out[i-1] {
			continue
		}
		dedup = append(dedup, d)
	}
	return dedup
}

type suppKey struct {
	file     string
	line     int
	analyzer string
}

// suppressions collects "//shmemvet:allow name" comments ("shmemvet:ignore"
// is an accepted alias). A comment suppresses the named analyzer on its own
// line and on the following line (so it can sit above the flagged statement).
func suppressions(pkg *Package) map[suppKey]bool {
	out := map[suppKey]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, "shmemvet:allow")
				if !ok {
					rest, ok = strings.CutPrefix(text, "shmemvet:ignore")
				}
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Fields(rest) {
					out[suppKey{pos.Filename, pos.Line, name}] = true
					out[suppKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return out
}

// --- shared call-resolution helpers ---

const (
	shmemPath = "cafshmem/internal/shmem"
	cafPath   = "cafshmem/internal/caf"
)

// callee resolves the statically-called function or method of a call
// expression, seeing through generic instantiation. It returns nil for
// indirect calls (function values, interface methods resolve to the
// interface method object, which is still useful).
func (p *Pass) callee(call *ast.CallExpr) *types.Func {
	return calleeFunc(p.Pkg.Info, call)
}

// calleeFunc is Pass.callee without the Pass: callgraph construction and
// summary computation resolve callees for packages other than the one under
// analysis.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit generic instantiation: Put[int64](...)
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else if ident, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = ident
		}
	case *ast.IndexListExpr:
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else if ident, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = ident
		}
	}
	if id == nil {
		return nil
	}
	if fn, ok := info.Uses[id].(*types.Func); ok {
		return fn
	}
	return nil
}

// fnIs reports whether fn is the named function or method of the package at
// path (methods match on their receiver's package).
func fnIs(fn *types.Func, path, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == path
}

// recvNamed returns the named type of fn's receiver (deref'd), or nil for
// package-level functions.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isMethodOf reports whether fn is a method named name on the named type
// typeName defined in the package at path.
func isMethodOf(fn *types.Func, path, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	named := recvNamed(fn)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// exprKey renders an expression as a normalized string so that two
// references to the same lock or symmetric object compare equal. Identifiers
// — including the qualifier and member of a package-qualified selector —
// resolve through go/types object identity where they resolve at all, with a
// purely syntactic rendering as the fallback, so neither a shadowed local in
// a nested scope nor an aliased import conflates distinct objects (or splits
// one object into distinct keys).
func (p *Pass) exprKey(e ast.Expr) string {
	var b strings.Builder
	p.writeExprKey(&b, ast.Unparen(e))
	return b.String()
}

func (p *Pass) writeExprKey(b *strings.Builder, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := p.Pkg.Info.ObjectOf(x); obj != nil {
			fmt.Fprintf(b, "%s@%d", x.Name, obj.Pos())
		} else {
			b.WriteString(x.Name)
		}
	case *ast.SelectorExpr:
		// A package-qualified reference (pkg.Var) keys on the member object
		// itself: every import alias and every file's import declaration of
		// the same package then yields one canonical key.
		if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if _, isPkg := p.Pkg.Info.ObjectOf(id).(*types.PkgName); isPkg {
				if obj := p.Pkg.Info.ObjectOf(x.Sel); obj != nil {
					fmt.Fprintf(b, "%s@%d", x.Sel.Name, obj.Pos())
					return
				}
			}
		}
		p.writeExprKey(b, ast.Unparen(x.X))
		b.WriteByte('.')
		b.WriteString(x.Sel.Name)
	case *ast.BasicLit:
		b.WriteString(x.Value)
	case *ast.CallExpr:
		p.writeExprKey(b, ast.Unparen(x.Fun))
		b.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			p.writeExprKey(b, ast.Unparen(a))
		}
		b.WriteByte(')')
	case *ast.IndexExpr:
		p.writeExprKey(b, ast.Unparen(x.X))
		b.WriteByte('[')
		p.writeExprKey(b, ast.Unparen(x.Index))
		b.WriteByte(']')
	case *ast.UnaryExpr:
		b.WriteString(x.Op.String())
		p.writeExprKey(b, ast.Unparen(x.X))
	case *ast.BinaryExpr:
		p.writeExprKey(b, ast.Unparen(x.X))
		b.WriteString(x.Op.String())
		p.writeExprKey(b, ast.Unparen(x.Y))
	default:
		fmt.Fprintf(b, "<%T@%d>", e, e.Pos())
	}
}

// posInPackage reports whether pos falls in one of this package's files.
func (p *Pass) posInPackage(pos token.Pos) bool {
	if !pos.IsValid() {
		return false
	}
	file := p.Pkg.Fset.Position(pos).Filename
	for _, fn := range p.Pkg.filenames {
		if fn == file {
			return true
		}
	}
	return false
}

// funcDecls yields every function declaration with a body in the package.
func (p *Pass) funcDecls(visit func(*ast.FuncDecl)) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}

// funcBodies yields every function body in the package: declared functions
// AND function literals (SPMD bodies are almost always closures passed to
// Run). Each body is visited exactly once and analyzed in isolation; walkers
// must not descend into nested FuncLits themselves.
func (p *Pass) funcBodies(visit func(name string, body *ast.BlockStmt)) {
	p.funcDecls(func(fd *ast.FuncDecl) {
		visit(fd.Name.Name, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				visit(fd.Name.Name+".func", fl.Body)
			}
			return true
		})
	})
}

// stmtCalls yields the call expressions inside a statement's expressions in
// source order, without descending into nested function literals.
func stmtCalls(n ast.Node, visit func(*ast.CallExpr)) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			// Visit arguments first: they are evaluated before the call.
			for _, a := range x.Args {
				stmtCalls(a, visit)
			}
			stmtCalls(x.Fun, visit)
			visit(x)
			return false
		}
		return true
	})
}
