package mlaas

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// metricNamesFile declares every shared metric name as a string constant.
const metricNamesFile = "internal/telemetry/names.go"

// metricReports names the code outside tests that reads metrics by name
// into a report: a function in a file, whose body counts as a reader of
// every metric constant it mentions.
var metricReports = []struct{ file, fn string }{
	{"internal/service/service.go", "handleHealthz"}, // GET /healthz store block
	{"benchmarks/layers.go", "readCounters"},         // benchmark per-layer counters
	{"benchmarks/sweep.go", "runSweep"},              // benchmark FEAT cache share
}

// unreadMetrics are the metric names no test and no report reads yet. The
// list may only shrink: a name that gains a reader must leave it, and a
// new name must come with a reader.
var unreadMetrics = map[string]bool{
	"mlaas_sweep_inflight_workers":             true,
	"mlaas_sweep_unit_duration_seconds":        true,
	"mlaas_store_load_duration_seconds":        true,
	"mlaas_router_replica_state_changes_total": true,
}

// metricConstants maps each string constant of names.go to its value.
func metricConstants(t *testing.T) map[string]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), metricNamesFile, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := map[string]string{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					consts[name.Name], _ = strconv.Unquote(lit.Value)
				}
			}
		}
	}
	if len(consts) == 0 {
		t.Fatalf("no string constants in %s", metricNamesFile)
	}
	return consts
}

// TestMetricCensus requires every metric name in names.go to have a
// reader: a test that names it, or one of metricReports. A metric nobody
// reads is a signal nobody consumes.
func TestMetricCensus(t *testing.T) {
	consts := metricConstants(t)
	byValue := map[string]string{}
	for name, value := range consts {
		byValue[value] = name
	}
	// refs marks every constant node mentions: as telemetry.Name, as a bare
	// Name inside package telemetry, or as the metric's string value.
	seen := map[string]bool{}
	refs := func(node ast.Node, inTelemetry bool) {
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "telemetry" && consts[n.Sel.Name] != "" {
					seen[n.Sel.Name] = true
				}
			case *ast.Ident:
				if inTelemetry && consts[n.Name] != "" {
					seen[n.Name] = true
				}
			case *ast.BasicLit:
				if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING && byValue[s] != "" {
					seen[byValue[s]] = true
				}
			}
			return true
		})
	}

	fset := token.NewFileSet()
	walkGoFiles(t, func(p string) error {
		// This file names the unread metrics, which reads none of them.
		if !strings.HasSuffix(p, "_test.go") || p == "census_test.go" {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		refs(f, filepath.Dir(p) == filepath.Dir(metricNamesFile))
		return nil
	})
	for _, r := range metricReports {
		f, err := parser.ParseFile(fset, r.file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == r.fn {
				refs(fd.Body, false)
				found = true
			}
		}
		if !found {
			t.Errorf("report reader %s in %s not found", r.fn, r.file)
		}
	}

	for name, value := range consts {
		switch {
		case !seen[name] && !unreadMetrics[value]:
			t.Errorf("%s (%s) has no reader: assert it in a test or read it in a named report", name, value)
		case seen[name] && unreadMetrics[value]:
			t.Errorf("%s (%s) is read now: drop it from unreadMetrics", name, value)
		}
	}
	for value := range unreadMetrics {
		if byValue[value] == "" {
			t.Errorf("unreadMetrics lists %s, which %s no longer declares", value, metricNamesFile)
		}
	}
}
