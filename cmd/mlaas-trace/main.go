// Command mlaas-trace analyses trace JSONL exported by mlaas-bench
// (-trace-out) or captured from a server's /debug/traces.
//
// Usage:
//
//	mlaas-trace [-top 3] [-flame 15] traces.jsonl [more.jsonl ...]
//
// Fragments of one distributed trace — the client's rpc tree and the server
// handler trees it caused — share a trace id and are stitched back into a
// single tree before analysis (the server root's parent id names the client
// rpc span that issued the request). The report has four sections:
//
//	stages    per-span-name latency breakdown (count/total/mean/p50/p95/max)
//	platforms per-platform rollup of root traces
//	critical  the dominant-child chain through the slowest traces
//	flame     self-time by span path, widest first
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mlaasbench/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mlaas-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.Int("top", 3, "how many slowest traces get a critical-path breakdown")
	flame := fs.Int("flame", 15, "how many paths the self-time summary lists")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: mlaas-trace [-top N] [-flame N] traces.jsonl [more.jsonl ...]")
		return 2
	}
	var frags []telemetry.TraceData
	for _, path := range fs.Args() {
		ts, err := loadTraceFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "mlaas-trace: %v\n", err)
			return 1
		}
		frags = append(frags, ts...)
	}
	if len(frags) == 0 {
		fmt.Fprintln(stderr, "mlaas-trace: no traces in input")
		return 1
	}
	traces := mergeFragments(frags)
	fmt.Fprintf(stdout, "%d traces (%d fragments) from %d file(s)\n\n", len(traces), len(frags), fs.NArg())
	printStages(stdout, stageBreakdown(traces))
	printPlatforms(stdout, platformRollup(traces))
	printCriticalPaths(stdout, traces, *top)
	printFlame(stdout, selfTimeByPath(traces), *flame)
	return 0
}

// loadTraceFile reads one trace JSONL file with line-accurate diagnostics.
// Three failure shapes that used to surface as a bare "unexpected EOF" or a
// silent empty report each get a distinct, actionable error: a file with no
// trace lines at all, a final record cut off mid-line (interrupted export),
// and a line that parses as JSON but is not a trace record.
func loadTraceFile(path string) ([]telemetry.TraceData, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(bytes.TrimSpace(data)) == 0 {
		return nil, fmt.Errorf("%s: empty input: no trace JSONL lines (export some with mlaas-bench -trace-out, or GET /debug/traces from a server)", path)
	}
	lines := bytes.Split(data, []byte("\n"))
	var out []telemetry.TraceData
	for i, line := range lines {
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		var t telemetry.TraceData
		if err := json.Unmarshal(trimmed, &t); err != nil {
			if i == len(lines)-1 && !bytes.HasSuffix(data, []byte("\n")) {
				return nil, fmt.Errorf("%s:%d: truncated trace record — the file ends mid-line, so the export was probably interrupted; re-export or delete the partial last line (parse error: %v)", path, i+1, err)
			}
			return nil, fmt.Errorf("%s:%d: bad trace JSONL: %v", path, i+1, err)
		}
		if t.TraceID == "" {
			return nil, fmt.Errorf("%s:%d: JSON object has no trace_id; this is not a trace JSONL export", path, i+1)
		}
		out = append(out, t)
	}
	return out, nil
}

// node is the mutable form of SpanData used while stitching fragments.
type node struct {
	telemetry.SpanData
	kids []*node
}

func toNode(sd telemetry.SpanData, index map[string]*node) *node {
	n := &node{SpanData: sd}
	n.SpanData.Children = nil
	index[sd.SpanID] = n
	for _, c := range sd.Children {
		n.kids = append(n.kids, toNode(c, index))
	}
	return n
}

func toSpanData(n *node) telemetry.SpanData {
	sd := n.SpanData
	sd.Children = make([]telemetry.SpanData, 0, len(n.kids))
	// Children in start order so stitched server trees interleave with the
	// native children the way the request actually unfolded.
	sort.SliceStable(n.kids, func(i, j int) bool {
		return n.kids[i].StartUnixNano < n.kids[j].StartUnixNano
	})
	for _, k := range n.kids {
		sd.Children = append(sd.Children, toSpanData(k))
	}
	return sd
}

// mergeFragments groups fragments by trace id and grafts each fragment
// whose root names a parent span found in a sibling fragment under that
// parent. Fragments whose parent is missing (sampled out on the other side,
// or genuinely root) stay roots; each yields one merged trace.
func mergeFragments(frags []telemetry.TraceData) []telemetry.TraceData {
	byID := map[string][]telemetry.TraceData{}
	var order []string
	for _, f := range frags {
		if _, ok := byID[f.TraceID]; !ok {
			order = append(order, f.TraceID)
		}
		byID[f.TraceID] = append(byID[f.TraceID], f)
	}
	var out []telemetry.TraceData
	for _, id := range order {
		group := byID[id]
		index := map[string]*node{}
		roots := make([]*node, 0, len(group))
		dropped := 0
		var firstErr string
		for _, f := range group {
			roots = append(roots, toNode(f.Root, index))
			dropped += f.DroppedSpans
			if firstErr == "" {
				firstErr = f.Error
			}
		}
		var unparented []*node
		for _, r := range roots {
			if p, ok := index[r.ParentID]; ok && r.ParentID != "" {
				p.kids = append(p.kids, r)
			} else {
				unparented = append(unparented, r)
			}
		}
		for _, r := range unparented {
			sd := toSpanData(r)
			out = append(out, telemetry.TraceData{
				TraceID:         id,
				DurationSeconds: sd.DurationSeconds,
				Spans:           countSpans(sd),
				DroppedSpans:    dropped,
				Error:           firstErr,
				Root:            sd,
			})
		}
	}
	return out
}

func countSpans(sd telemetry.SpanData) int {
	n := 1
	for _, c := range sd.Children {
		n += countSpans(c)
	}
	return n
}

func walk(sd telemetry.SpanData, fn func(telemetry.SpanData)) {
	fn(sd)
	for _, c := range sd.Children {
		walk(c, fn)
	}
}

// stageStat aggregates every span sharing one name across all traces.
type stageStat struct {
	Name  string
	Count int
	Total float64
	Max   float64
	durs  []float64
}

func stageBreakdown(traces []telemetry.TraceData) []stageStat {
	byName := map[string]*stageStat{}
	for _, t := range traces {
		walk(t.Root, func(sd telemetry.SpanData) {
			s := byName[sd.Name]
			if s == nil {
				s = &stageStat{Name: sd.Name}
				byName[sd.Name] = s
			}
			s.Count++
			s.Total += sd.DurationSeconds
			if sd.DurationSeconds > s.Max {
				s.Max = sd.DurationSeconds
			}
			s.durs = append(s.durs, sd.DurationSeconds)
		})
	}
	out := make([]stageStat, 0, len(byName))
	for _, s := range byName {
		sort.Float64s(s.durs)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

func (s stageStat) quantile(q float64) float64 {
	if len(s.durs) == 0 {
		return 0
	}
	return s.durs[int(q*float64(len(s.durs)-1))]
}

// platStat rolls whole traces up by the platform attr on (or under) the root.
type platStat struct {
	Platform string
	Traces   int
	Total    float64
	Errors   int
}

func tracePlatform(t telemetry.TraceData) string {
	plat := ""
	walk(t.Root, func(sd telemetry.SpanData) {
		if plat == "" && sd.Attrs["platform"] != "" {
			plat = sd.Attrs["platform"]
		}
	})
	if plat == "" {
		plat = "(none)"
	}
	return plat
}

func platformRollup(traces []telemetry.TraceData) []platStat {
	byPlat := map[string]*platStat{}
	for _, t := range traces {
		plat := tracePlatform(t)
		s := byPlat[plat]
		if s == nil {
			s = &platStat{Platform: plat}
			byPlat[plat] = s
		}
		s.Traces++
		s.Total += t.DurationSeconds
		if t.Error != "" {
			s.Errors++
		}
	}
	out := make([]platStat, 0, len(byPlat))
	for _, s := range byPlat {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

// criticalPath walks the dominant-child chain from the root: at each level
// it descends into the child with the largest duration — the span that
// gates the trace's latency.
func criticalPath(t telemetry.TraceData) []telemetry.SpanData {
	var path []telemetry.SpanData
	sd := t.Root
	for {
		path = append(path, sd)
		if len(sd.Children) == 0 {
			return path
		}
		best := sd.Children[0]
		for _, c := range sd.Children[1:] {
			if c.DurationSeconds > best.DurationSeconds {
				best = c
			}
		}
		sd = best
	}
}

func selfTime(sd telemetry.SpanData) float64 {
	self := sd.DurationSeconds
	for _, c := range sd.Children {
		self -= c.DurationSeconds
	}
	if self < 0 {
		return 0
	}
	return self
}

// pathStat accumulates self time per slash path ("measure/rpc:train/...").
type pathStat struct {
	Path  string
	Count int
	Self  float64
}

func selfTimeByPath(traces []telemetry.TraceData) []pathStat {
	byPath := map[string]*pathStat{}
	for _, t := range traces {
		walk(t.Root, func(sd telemetry.SpanData) {
			key := sd.Path
			if key == "" {
				key = sd.Name
			}
			s := byPath[key]
			if s == nil {
				s = &pathStat{Path: key}
				byPath[key] = s
			}
			s.Count++
			s.Self += selfTime(sd)
		})
	}
	out := make([]pathStat, 0, len(byPath))
	for _, s := range byPath {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

func ms(sec float64) float64 { return sec * 1000 }

func printStages(w io.Writer, stages []stageStat) {
	fmt.Fprintln(w, "== stages (by total time) ==")
	fmt.Fprintf(w, "%-22s %8s %10s %9s %9s %9s %9s\n", "span", "count", "total_ms", "mean_ms", "p50_ms", "p95_ms", "max_ms")
	for _, s := range stages {
		fmt.Fprintf(w, "%-22s %8d %10.2f %9.3f %9.3f %9.3f %9.3f\n",
			s.Name, s.Count, ms(s.Total), ms(s.Total)/float64(s.Count),
			ms(s.quantile(0.50)), ms(s.quantile(0.95)), ms(s.Max))
	}
	fmt.Fprintln(w)
}

func printPlatforms(w io.Writer, plats []platStat) {
	fmt.Fprintln(w, "== platforms ==")
	fmt.Fprintf(w, "%-14s %8s %10s %9s %7s\n", "platform", "traces", "total_ms", "mean_ms", "errors")
	for _, p := range plats {
		fmt.Fprintf(w, "%-14s %8d %10.2f %9.3f %7d\n",
			p.Platform, p.Traces, ms(p.Total), ms(p.Total)/float64(p.Traces), p.Errors)
	}
	fmt.Fprintln(w)
}

func printCriticalPaths(w io.Writer, traces []telemetry.TraceData, top int) {
	sorted := append([]telemetry.TraceData(nil), traces...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].DurationSeconds > sorted[j].DurationSeconds })
	if top > len(sorted) {
		top = len(sorted)
	}
	fmt.Fprintf(w, "== critical path: %d slowest trace(s) ==\n", top)
	for _, t := range sorted[:top] {
		fmt.Fprintf(w, "trace %s  %.2fms  %d spans", t.TraceID, ms(t.DurationSeconds), t.Spans)
		if t.Error != "" {
			fmt.Fprintf(w, "  ERROR %s", t.Error)
		}
		fmt.Fprintln(w)
		for depth, sd := range criticalPath(t) {
			pct := 0.0
			if t.DurationSeconds > 0 {
				pct = 100 * sd.DurationSeconds / t.DurationSeconds
			}
			fmt.Fprintf(w, "  %s%-*s %9.3fms  self %9.3fms  %5.1f%%\n",
				strings.Repeat("  ", depth), 24-2*depth, sd.Name,
				ms(sd.DurationSeconds), ms(selfTime(sd)), pct)
		}
	}
	fmt.Fprintln(w)
}

func printFlame(w io.Writer, paths []pathStat, limit int) {
	fmt.Fprintln(w, "== self time by path ==")
	if limit > len(paths) {
		limit = len(paths)
	}
	for _, p := range paths[:limit] {
		fmt.Fprintf(w, "%10.2fms %6d× %s\n", ms(p.Self), p.Count, p.Path)
	}
}
