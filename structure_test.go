package cafshmem

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestStructure holds the module's layering (one issue core, one funnel, one
// heap, one fault model, one checker) to the syntax tree of every Go file
// outside dot directories, each parsed once. A row names a rule, the DESIGN.md
// section that states it, and the checks that find what breaks it; the gates
// that need a toolchain flag (gofmt, inlining, bounds checks) are check.sh's.
func TestStructure(t *testing.T) {
	nodes := parseModule(t)
	for _, r := range structureRows {
		t.Run(r.name, func(t *testing.T) {
			for _, c := range r.checks {
				if bad := c.run(nodes); len(bad) > 0 {
					t.Errorf("%s (DESIGN.md %q); found:\n\t%s", r.rule, r.section, strings.Join(bad, "\n\t"))
				}
			}
		})
	}
}

var structureRows = []struct {
	name, section, rule string
	checks              []check
}{
	{"unsafe", "Memory representation", "only internal/pgas/codec.go imports unsafe", []check{code().not("internal/pgas/codec.go").find(imports("unsafe"))}},
	{"host-clock", "Execution engine", "virtual time is the only clock: nothing under internal/ imports time outside tests", []check{code("internal/").find(imports("time"))}},
	{"one-command", "Systems inventory", "cmd/reproduce is the one command, and outside benchmark/ only it and internal/pgasbench import flag", []check{
		files("cmd/").not("cmd/reproduce/").find(is[*ast.File]), code().not("benchmark/", "cmd/reproduce/", "internal/pgasbench/").find(imports("flag"))}},
	{"one-pool", "Host-performance model", "internal/pgasbench starts goroutines only in parallel (parallel.go)", []check{code("internal/pgasbench/").not("internal/pgasbench/parallel.go").find(is[*ast.GoStmt])}},
	{"one-runner-start", "Execution engine", "outside internal/pgasbench (one-pool), non-test Go under internal/ starts goroutines only in pgas's runner start, World.start (engine.go): every PE body runs on a runner, reused across worlds", []check{
		code("internal/").not("internal/pgasbench/").find(is[*ast.GoStmt]).allow("internal/pgas/engine.go", 1)}},
	{"one-issue-core", "Fault model", "pgas.PE.Issue sends, books and lands every put and get: one function, pgas.World.Transmit, consults the fault plan, one site in internal/pgas calls it, and no library moves a put's or get's bytes", []check{
		code().not("internal/fabric/").find(on(func(d *ast.FuncDecl) bool { return has(d, calls("LossyPair", "Deliver")) })).allow("internal/pgas/delivery.go", 1),
		code().not("internal/fabric/").find(calls("LossyPair", "Deliver")).allow("internal/pgas/delivery.go", 2),
		code().not("internal/fabric/").find(calls("Transmit")).allow("internal/pgas/", 1),
		code("internal/gasnet/extended.go", "internal/mpi3/rma.go").find(calls("pw.Write", "pw.WriteUint64", "pw.Read")),
		code("internal/shmem/", "internal/gasnet/", "internal/mpi3/", "internal/caf/").find(calls("WriteRuns", "WriteV", "RepairWrite", "ReadRuns", "ReadV", "ReadUint64Ts")),
		code("internal/shmem/issue.go").find(on(func(d *ast.FuncDecl) bool { return d.Recv != nil && named(d.Name.Name, "send", "land", "fetch") }))}},
	{"one-fault-model", "Fault model", "the fault plan is pgas.Options' alone: no library names FaultPlan outside its tests", []check{code("internal/shmem/", "internal/gasnet/", "internal/mpi3/").find(idents("FaultPlan"))}},
	{"one-funnel", "Systems inventory", "the runtime hands every transfer to its backend at one site, and caf.Caps has no shape bits", []check{
		code("internal/caf/").find(calls("be.rma")).allow("internal/caf/", 1), code("internal/caf/").find(declares("Caps", "Vectored", "Strided"))}},
	{"one-checker", "Correctness tooling", "libraries complete through pgas.PE.Drain/DrainTarget, which discharge the sanitizer's records, and caf.Caps has no Sanitizer bit", []check{
		code().not("internal/pgas/", "internal/fabric/", "benchmark/").find(func(n ast.Node) bool { return args(n, "Drain") == 0 || args(n, "DrainTarget") == 1 }),
		code("internal/caf/").find(declares("Caps", "Sanitizer"))}},
	{"one-copy", "Memory representation", "the issue core copies a put's bytes once, into the target partition: internal/caf copies no payload", []check{
		code("internal/caf/").find(calls("bytes.Clone", "slices.Clone"), on(func(c *ast.CallExpr) bool { return args(c, "append") > 0 && nodeIs(c.Args[0], "[]byte(nil)") }),
			on(func(d *ast.FuncDecl) bool {
				return strings.HasPrefix(d.Name.Name, "payload") && has(d.Type.Params, idents("nbi"))
			}))}},
	{"one-lock", "Fault model", "a STAT form records its plain twin's tracer kind: get_stat, the lock repair's forensic read, is the one _stat kind", []check{
		code().not("benchmark/").find(on(func(lit *ast.BasicLit) bool {
			s, _ := strconv.Unquote(lit.Value)
			return token.IsIdentifier(s) && strings.HasSuffix(s, "_stat") && s != "get_stat"
		}))}},
	{"word-offset", "Correctness tooling", "internal/shmem addresses a word by PE.wordOff, which checks all 8 bytes: Sym.At(int64(…)*8) checks one", []check{
		code("internal/shmem/").find(on(func(c *ast.CallExpr) bool {
			return args(c, "At") == 1 && on(func(b *ast.BinaryExpr) bool {
				return b.Op == token.MUL && (nodeIs(b.X, "8") && args(b.Y, "int64") == 1 || args(b.X, "int64") == 1 && nodeIs(b.Y, "8"))
			})(ast.Unparen(c.Args[0]))
		}))}},
	{"one-engine", "Execution engine", "a runner goroutine per image, reused across worlds, and one sleep, PE.block on PE.cond (world.go): internal/pgas has no second scheduler, nothing outside benchmark/ yields, and the deprecated engine names are named only in their declaration", []check{
		code("internal/pgas/").find(on(func(c *ast.ChanType) bool { return nodeIs(c.Value, "struct{}") }), idents("sched"), on(func(s *ast.SelectorExpr) bool { return nodeIs(s, "sync.NewCond") })),
		code("internal/pgas/").find(on(func(s *ast.SelectorExpr) bool { return nodeIs(s, "sync.Cond") })).allow("internal/pgas/world.go", 1),
		code().not("benchmark/").find(idents("Gosched"), calls("Yield")),
		// benchmark/ still spells the ignored pgas.Engine stub; the change that
		// moves it off the stub deletes this allowance.
		code().not("benchmark/").find(idents("EngineEvent", "EngineGoroutine")).allow("internal/pgas/engine.go", 2)}},
	{"one-collective-tree", "Nonblocking RMA and communication/computation overlap", "the stack has one collective tree, caf's groupReduce (group.go), behind every CO_* call: in internal/caf only it calls sendVals and awaitFlag, and outside internal/fabric only it computes a tree's depth (fabric.CeilLog2)", []check{
		code("internal/caf/").find(on(func(d *ast.FuncDecl) bool {
			return d.Name.Name != "groupReduce" && has(d, calls("sendVals", "awaitFlag"))
		})),
		code().not("internal/fabric/").find(on(func(d *ast.FuncDecl) bool {
			return d.Name.Name != "groupReduce" && has(d, calls("CeilLog2"))
		})),
		code().not("internal/fabric/").find(calls("CeilLog2")).allow("internal/caf/group.go", 1)}},
	{"checked-range", "Partition memory life cycle", "an entry of internal/pgas that locks a partition checks its range first: a function that calls part and .mu.Lock calls checkRange or checkSpan before the lock", []check{
		code("internal/pgas/").find(on(func(d *ast.FuncDecl) bool {
			lock, check := first(d, calls("mu.Lock")), first(d, calls("checkRange", "checkSpan"))
			return lock.IsValid() && has(d, calls("part")) && !(check.IsValid() && check < lock)
		}))}},
	{"per-rank-table", "Host-performance model", "every layer's per-rank handle is an element of one table per world: none is allocated on its own", []check{
		code("internal/").find(on(func(u *ast.UnaryExpr) bool {
			lit, ok := u.X.(*ast.CompositeLit)
			return u.Op == token.AND && ok && named(types.ExprString(lit.Type), "PE", "EP", "Proc", "Image", "shmemBackend", "gasnetBackend", "mpi3Backend", "nsAlloc")
		}))}},
	{"deleted-names", "Systems inventory", "a name whose deletion made a layer one does not come back", []check{
		files("internal/shmem/").find(on(func(f *ast.FuncType) bool {
			return nodeIs(&ast.FuncType{Params: f.Params}, "func(at float64)", "func(wire float64)")
		})).because("shmem's closure-driven lossy fork, deleted in d72b73e (one-issue-core)"),
		code().not("benchmark/").find(idents("FaultTolerant", "ftMode", "ftQnodeBytes")).because("the fault-tolerance switch, deleted in 687ed63 (one-lock)"),
		files("internal/caf/lockstat.go").find(is[*ast.File]).because("a second MCS lock, deleted in 687ed63 (one-lock)"),
		files("internal/shmem/").find(idents("ToAll", "FCollect", "ReduceOp")).because("OpenSHMEM's own broadcast, reduction and collect tree, deleted with internal/shmem/collectives.go (one-collective-tree)"),
		files().find(idents("FaultStat")).because("the fault-capability split, deleted in cac84f5 (one-fault-model)"),
		code().not("internal/pgas/").find(idents("brk", "symHeap", "winHeap", "NoteAlloc", "NoteFree")).because("a library heap or allocation record, deleted in f1ddf8a (one-heap)"),
		files().find(on(func(d *ast.FuncDecl) bool {
			return d.Name.Name == "Shared" && d.Recv != nil && has(d.Recv, idents("World"))
		})).because("World.Shared, a library's slot for its own heap, deleted in f1ddf8a (one-heap)"),
		files("internal/shmem/").find(idents("CtxCreate", "Ctx")).because("shmem's communication contexts, folded into PE with internal/shmem/ctx.go deleted (reachability)"),
		files().find(idents("SetLock", "TestLock", "ClearLock")).because("OpenSHMEM's global locks, which CAF cannot use (§IV-D), deleted with internal/shmem/locks.go (reachability)"),
		files().find(idents("SyncHandle", "PartialError", "RequestShort", "RequestMedium", "RequestLong")).because("GASNet's explicit handles and fire-and-forget active messages, deleted (reachability)")}},
}

// A check finds the nodes one of match matches in the files under one of in
// and none of out (path prefixes; test files only if tests is set). Exactly n
// must lie under allowed and none elsewhere; note says what one elsewhere
// brings back.
type check struct {
	tests         bool
	in, out       []string
	allowed, note string
	n             int
	match         []func(ast.Node) bool
}

func code(in ...string) check                           { return check{in: in} }
func files(in ...string) check                          { return check{tests: true, in: in} }
func (c check) not(out ...string) check                 { c.out = out; return c }
func (c check) find(match ...func(ast.Node) bool) check { c.match = match; return c }
func (c check) allow(path string, n int) check          { c.allowed, c.n = path, n; return c }
func (c check) because(note string) check               { c.note = note; return c }

func (c check) run(nodes []node) (bad []string) {
	under := func(path string, dirs ...string) bool {
		return slices.ContainsFunc(dirs, func(d string) bool { return strings.HasPrefix(path, d) })
	}
	var allowed []string
	for _, n := range nodes {
		if !c.tests && strings.HasSuffix(n.path, "_test.go") || len(c.in) > 0 && !under(n.path, c.in...) || under(n.path, c.out...) ||
			!slices.ContainsFunc(c.match, func(match func(ast.Node) bool) bool { return match(n.Node) }) {
			continue
		} else if at := fmt.Sprintf("%s:%d", n.path, n.line); c.allowed != "" && under(n.path, c.allowed) {
			allowed = append(allowed, at)
		} else {
			bad = append(bad, strings.TrimSpace(at+" "+c.note))
		}
	}
	if len(allowed) != c.n {
		bad = append(bad, fmt.Sprintf("%d under %s, want %d: %s", len(allowed), c.allowed, c.n, strings.Join(allowed, " ")))
	}
	return bad
}

// A node is a node of the module's syntax trees, with its file and line.
type node struct {
	path string
	line int
	ast.Node
}

func parseModule(t *testing.T) (nodes []node) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		} else if err != nil || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n != nil {
				nodes = append(nodes, node{filepath.ToSlash(path), fset.Position(n.Pos()).Line, n})
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// on makes a matcher of any node from a predicate over one kind of node.
func on[T ast.Node](p func(T) bool) func(ast.Node) bool {
	return func(n ast.Node) bool { t, ok := n.(T); return ok && p(t) }
}

func is[T ast.Node](n ast.Node) bool { _, ok := n.(T); return ok }

func idents(names ...string) func(ast.Node) bool {
	return on(func(id *ast.Ident) bool { return slices.Contains(names, id.Name) })
}

func imports(path string) func(ast.Node) bool {
	return on(func(s *ast.ImportSpec) bool { return s.Path.Value == strconv.Quote(path) })
}

func calls(names ...string) func(ast.Node) bool {
	return func(n ast.Node) bool { return args(n, names...) >= 0 }
}

// args returns the number of arguments if n calls a function written as one
// of names or as x.name ("append", "pw.Write", "img.be.rma"), else -1.
func args(n ast.Node, names ...string) int {
	if c, ok := n.(*ast.CallExpr); ok && named(types.ExprString(ast.Unparen(c.Fun)), names...) {
		return len(c.Args)
	}
	return -1
}

func named(s string, names ...string) bool {
	return slices.ContainsFunc(names, func(name string) bool { return s == name || strings.HasSuffix(s, "."+name) })
}

// nodeIs reports whether e is written as one of forms, as go/types prints it.
func nodeIs(e ast.Expr, forms ...string) bool { return slices.Contains(forms, types.ExprString(e)) }

// has reports whether match matches a node of the tree under n: a function
// declaration's tree holds its function literals.
func has(n ast.Node, match func(ast.Node) bool) (found bool) {
	ast.Inspect(n, func(n ast.Node) bool { found = found || n != nil && match(n); return !found })
	return found
}

// first returns where the first node under n that match matches begins
// (token.NoPos for none).
func first(n ast.Node, match func(ast.Node) bool) (pos token.Pos) {
	ast.Inspect(n, func(n ast.Node) bool {
		if n != nil && match(n) && (!pos.IsValid() || n.Pos() < pos) {
			pos = n.Pos()
		}
		return true
	})
	return pos
}

// declares matches the declaration of type typ if it names one of names.
func declares(typ string, names ...string) func(ast.Node) bool {
	return on(func(ts *ast.TypeSpec) bool { return ts.Name.Name == typ && has(ts.Type, idents(names...)) })
}
