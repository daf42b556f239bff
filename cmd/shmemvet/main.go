// Command shmemvet runs the PGAS static analyzers over this module's packages:
// the contracts of the paper's CAF-over-OpenSHMEM mapping that neither the Go
// compiler nor a run can check — today symcheck, symmetric handles forged by
// hand. Everything a run can see is the runtime sanitizer's (pgas.Options
// Sanitize), on every transport.
//
// Usage:
//
//	go run ./cmd/shmemvet ./...
//	go run ./cmd/shmemvet -checks symcheck ./internal/dht
//
// Patterns are directories, optionally ending in /... to recurse. With no
// arguments, ./... is assumed. The exit status is 1 if any diagnostic is
// reported, 2 on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cafshmem/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("shmemvet", flag.ContinueOnError)
	checks := fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
	verbose := fs.Bool("v", false, "list analyzed packages and type-check noise")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shmemvet:", err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "shmemvet:", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shmemvet:", err)
		return 2
	}

	dirs, err := expandPatterns(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "shmemvet:", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "shmemvet: no packages matched")
		return 2
	}

	exit := 0
	var diags []analysis.Diagnostic
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shmemvet: %s: %v\n", dir, err)
			exit = 2
			continue
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "shmemvet: analyzing %s\n", pkg.Path)
			for _, e := range pkg.TypeErrs {
				fmt.Fprintf(os.Stderr, "shmemvet: %s: type-check: %v\n", pkg.Path, e)
			}
		}
		diags = append(diags, analysis.RunAnalyzers(pkg, analyzers)...)
	}
	if *jsonOut {
		if err := writeJSON(os.Stdout, cwd, diags); err != nil {
			fmt.Fprintln(os.Stderr, "shmemvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(relativize(cwd, d))
		}
	}
	if len(diags) > 0 && exit == 0 {
		exit = 1
	}
	return exit
}

// jsonDiag is the machine-readable diagnostic record: one object per finding,
// with the file path relative to the working directory where possible.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(w io.Writer, cwd string, diags []analysis.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		out = append(out, jsonDiag{File: file, Line: d.Pos.Line, Column: d.Pos.Column, Analyzer: d.Analyzer, Message: d.Message})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func selectAnalyzers(checks string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if checks == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(checks, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have: %s)", name, analyzerNames(all))
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames(all []*analysis.Analyzer) string {
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// expandPatterns resolves package patterns to package directories. A pattern
// is a directory path; a trailing "/..." recurses. Directories named testdata,
// hidden directories, and directories without buildable Go files are skipped.
func expandPatterns(cwd string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive, pat = true, rest
		} else if pat == "..." {
			recursive, pat = true, "."
		}
		if pat == "" {
			pat = "."
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(cwd, root)
		}
		info, err := os.Stat(root)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("%s is not a directory", pat)
		}
		if !recursive {
			add(root)
			continue
		}
		err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

func relativize(cwd string, d analysis.Diagnostic) string {
	s := d.String()
	if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		s = fmt.Sprintf("%s:%d:%d: %s: %s", rel, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	return s
}
