// Package analysis is a self-contained static-analysis engine for the one PGAS
// contract no run can check: symmetric handles (shmem.Sym) are meaningful only
// as the result of a collective Malloc in the world that performed it (§IV-A),
// and a handle forged by hand looks, to the running library, like any other.
// Every rule a run can see — completion before reads, pinned nonblocking
// sources, balanced and ordered locks, collective agreement — is the runtime
// sanitizer's (internal/pgas, sanitizer.go), on every transport. Each rule is
// encoded as an Analyzer; cmd/shmemvet drives them over the module's packages.
//
// The engine uses only the standard library (go/ast, go/parser, go/types):
// module-local imports are type-checked from source and standard-library
// imports go through the compiler's source importer, so no third-party
// analysis framework is required. A "//shmemvet:allow <analyzer>" comment
// ("shmemvet:ignore" is an alias) on (or immediately above) a line suppresses
// its findings — used where a runtime layer legitimately breaks a surface rule
// (e.g. the CAF transport viewing the whole partition as one Sym).
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer checks one PGAS API contract.
type Analyzer struct {
	Name string // short name used in reports and suppression comments
	Doc  string // one-line description
	Run  func(*Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    []Diagnostic
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
	return []*Analyzer{SymCheck}
}

// RunAnalyzers applies the analyzers to the package and returns the findings
// that survive suppression comments, sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	allowed := suppressions(pkg)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg}
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
	return out
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

const shmemPath = "cafshmem/internal/shmem"
