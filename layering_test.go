package mlaas

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path prefix of every package in this module.
const modulePath = "mlaasbench"

// walkGoFiles calls visit with the path of every .go file of the module,
// skipping the directories the go tool ignores (dot, underscore, testdata).
func walkGoFiles(t *testing.T, visit func(p string) error) {
	t.Helper()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		return visit(p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// moduleImports maps each package of the module to the module packages its
// non-test files import. Imports are read with go/parser alone, so the
// graph needs no go toolchain at test time. Files under every build tag
// count, which can only over-report an edge, never hide one.
func moduleImports(t *testing.T) map[string][]string {
	t.Helper()
	fset := token.NewFileSet()
	graph := map[string][]string{}
	walkGoFiles(t, func(p string) error {
		if strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := path.Join(modulePath, filepath.ToSlash(filepath.Dir(p)))
		for _, imp := range f.Imports {
			dep, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if dep == modulePath || strings.HasPrefix(dep, modulePath+"/") {
				graph[pkg] = append(graph[pkg], dep)
			}
		}
		return nil
	})
	return graph
}

// transitiveImports returns every module package reachable from pkg.
func transitiveImports(graph map[string][]string, pkg string) map[string]bool {
	seen := map[string]bool{}
	stack := []string{pkg}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, dep := range graph[p] {
			if !seen[dep] {
				seen[dep] = true
				stack = append(stack, dep)
			}
		}
	}
	return seen
}

// TestServiceLayering pins the serving stack's import graph: the HTTP
// service (and so the client and the sweep core built on it) stays clear of
// the perf-history tooling and of any in-process profiler.
func TestServiceLayering(t *testing.T) {
	graph := moduleImports(t)
	const service = modulePath + "/internal/service"
	if len(graph[service]) == 0 {
		t.Fatalf("no module imports found for %s: the walk missed its files", service)
	}
	deps := transitiveImports(graph, service)
	for _, banned := range []string{modulePath + "/internal/perf", modulePath + "/internal/profiling"} {
		if deps[banned] {
			t.Errorf("%s imports %s, directly or through another module package", service, banned)
		}
	}
}

// TestPerfHistoryIsALeafTool pins who may import the perf-history package:
// mlaas-perf, which runs, compares and reports the history, and the
// benchmark driver, which writes its records. No internal package and no
// other binary depends on it.
func TestPerfHistoryIsALeafTool(t *testing.T) {
	graph := moduleImports(t)
	const perf = modulePath + "/internal/perf"
	importers := []string{modulePath + "/cmd/mlaas-perf", modulePath + "/benchmarks"}
	for _, pkg := range importers {
		if !slices.Contains(graph[pkg], perf) {
			t.Errorf("%s no longer imports %s: the walk missed it, or this list is stale", pkg, perf)
		}
	}
	for pkg, deps := range graph {
		if slices.Contains(deps, perf) && !slices.Contains(importers, pkg) {
			t.Errorf("%s imports %s; only %v may", pkg, perf, importers)
		}
	}
}
