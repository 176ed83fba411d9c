package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlaasbench/internal/client"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/service"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
)

// fragments builds a client fragment plus a server fragment of the same
// distributed trace: the server's http:train root names the client's
// rpc:train span as its parent, exactly what -trace-out files contain.
func fragments() []telemetry.TraceData {
	client := telemetry.TraceData{
		TraceID:         "0af7651916cd43dd8448eb211c80319c",
		DurationSeconds: 0.030,
		Spans:           2,
		Root: telemetry.SpanData{
			SpanID: "b7ad6b7169203331", Name: "measure", Path: "measure",
			StartUnixNano: 1000, DurationSeconds: 0.030,
			Attrs: map[string]string{"platform": "amazon", "dataset": "tr"},
			Children: []telemetry.SpanData{{
				SpanID: "00f067aa0ba902b7", ParentID: "b7ad6b7169203331",
				Name: "rpc:train", Path: "measure/rpc:train",
				StartUnixNano: 2000, DurationSeconds: 0.025,
			}},
		},
	}
	server := telemetry.TraceData{
		TraceID:         "0af7651916cd43dd8448eb211c80319c",
		DurationSeconds: 0.020,
		Spans:           2,
		Root: telemetry.SpanData{
			SpanID: "9d3c0e8f4a1b6c2d", ParentID: "00f067aa0ba902b7",
			Name: "http:train", Path: "http:train",
			StartUnixNano: 3000, DurationSeconds: 0.020,
			Children: []telemetry.SpanData{{
				SpanID: "1a2b3c4d5e6f7a8b", ParentID: "9d3c0e8f4a1b6c2d",
				Name: "model_fit", Path: "http:train/model_fit",
				StartUnixNano: 4000, DurationSeconds: 0.018,
			}},
		},
	}
	return []telemetry.TraceData{client, server}
}

func TestMergeFragmentsStitchesAcrossProcesses(t *testing.T) {
	merged := mergeFragments(fragments())
	if len(merged) != 1 {
		t.Fatalf("merged into %d traces, want 1", len(merged))
	}
	m := merged[0]
	if m.Spans != 4 {
		t.Errorf("merged trace has %d spans, want 4", m.Spans)
	}
	if m.Root.Name != "measure" {
		t.Errorf("merged root %q, want the client measure span", m.Root.Name)
	}
	rpc := m.Root.Children[0]
	if rpc.Name != "rpc:train" || len(rpc.Children) != 1 || rpc.Children[0].Name != "http:train" {
		t.Errorf("server fragment not grafted under rpc:train: %+v", rpc)
	}
}

func TestMergeFragmentsKeepsOrphanRoots(t *testing.T) {
	frags := fragments()[1:] // server fragment only; client side sampled out
	merged := mergeFragments(frags)
	if len(merged) != 1 || merged[0].Root.Name != "http:train" {
		t.Fatalf("orphan fragment should survive as its own trace: %+v", merged)
	}
}

func TestAnalysisSections(t *testing.T) {
	merged := mergeFragments(fragments())

	stages := stageBreakdown(merged)
	byName := map[string]stageStat{}
	for _, s := range stages {
		byName[s.Name] = s
	}
	if byName["model_fit"].Count != 1 || byName["model_fit"].Total != 0.018 {
		t.Errorf("model_fit stage stat wrong: %+v", byName["model_fit"])
	}
	if stages[0].Name != "measure" {
		t.Errorf("stages not sorted by total: first is %s", stages[0].Name)
	}

	plats := platformRollup(merged)
	if len(plats) != 1 || plats[0].Platform != "amazon" || plats[0].Traces != 1 {
		t.Errorf("platform rollup wrong: %+v", plats)
	}

	cp := criticalPath(merged[0])
	want := []string{"measure", "rpc:train", "http:train", "model_fit"}
	if len(cp) != len(want) {
		t.Fatalf("critical path has %d hops, want %d", len(cp), len(want))
	}
	for i, sd := range cp {
		if sd.Name != want[i] {
			t.Errorf("critical path hop %d is %s, want %s", i, sd.Name, want[i])
		}
	}

	paths := selfTimeByPath(merged)
	if paths[0].Path != "http:train/model_fit" {
		t.Errorf("widest self-time path %q, want the leaf fit", paths[0].Path)
	}
}

func TestJSONLRoundTripThroughAnalysis(t *testing.T) {
	var buf bytes.Buffer
	if err := telemetry.WriteTraceJSONL(&buf, fragments()); err != nil {
		t.Fatalf("write: %v", err)
	}
	back, err := telemetry.ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip lost fragments: %d", len(back))
	}
	if merged := mergeFragments(back); len(merged) != 1 || merged[0].Spans != 4 {
		t.Fatalf("merge after round trip wrong: %+v", merged)
	}
}

// traceLine marshals one minimal-but-valid trace record to a JSONL line.
func traceLine(t *testing.T, id string) string {
	t.Helper()
	td := telemetry.TraceData{
		TraceID:         id,
		DurationSeconds: 0.01,
		Spans:           1,
		Root: telemetry.SpanData{
			SpanID: "s-" + id, Name: "predict", Path: "predict",
			DurationSeconds: 0.01,
			Attrs:           map[string]string{"platform": "local"},
		},
	}
	b, err := json.Marshal(td)
	if err != nil {
		t.Fatalf("marshal trace: %v", err)
	}
	return string(b)
}

func writeInput(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunReportsTraces is the happy path: a well-formed JSONL export
// produces the four report sections on stdout and exit 0.
func TestRunReportsTraces(t *testing.T) {
	path := writeInput(t, traceLine(t, "t1")+"\n"+traceLine(t, "t2")+"\n")
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"2 traces", "== stages", "== platforms", "== critical path", "== self time"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunDiagnostics pins the failure-shape messages: each malformed input
// must fail (exit 1) with a distinct, file-and-line-accurate diagnostic
// rather than a bare "unexpected EOF" or a silently empty report.
func TestRunDiagnostics(t *testing.T) {
	valid := traceLine(t, "t1")
	cases := []struct {
		name    string
		content string
		want    []string
	}{
		{"empty file", "", []string{"empty input", "-trace-out"}},
		{"whitespace only", "\n\n  \n", []string{"empty input"}},
		{"truncated last record", valid + "\n" + valid[:len(valid)/2],
			[]string{":2:", "truncated", "interrupted"}},
		{"garbage mid-file", valid + "\n{not json}\n" + valid + "\n",
			[]string{":2:", "bad trace JSONL"}},
		{"json but not a trace", `{"foo": 1}` + "\n",
			[]string{":1:", "no trace_id"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeInput(t, tc.content)
			var out, errb bytes.Buffer
			if code := run([]string{path}, &out, &errb); code != 1 {
				t.Fatalf("exit %d, want 1 (stderr: %s)", code, errb.String())
			}
			msg := errb.String()
			if !strings.Contains(msg, path) {
				t.Errorf("diagnostic does not name the file: %s", msg)
			}
			for _, want := range tc.want {
				if !strings.Contains(msg, want) {
					t.Errorf("diagnostic missing %q: %s", want, msg)
				}
			}
		})
	}
}

// TestRunUsage: no input files is a usage error; a missing file is a
// runtime error naming the path.
func TestRunUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("bare run exits %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Errorf("no usage line: %s", errb.String())
	}
	errb.Reset()
	if code := run([]string{filepath.Join(t.TempDir(), "nope.jsonl")}, &out, &errb); code != 1 {
		t.Fatalf("missing file exits %d, want 1", code)
	}
}

// TestTruncatedWithTrailingNewline: a bad line that is NOT the unterminated
// final line reports as malformed, not truncated — the truncation hint is
// reserved for the interrupted-export shape.
func TestTruncatedWithTrailingNewline(t *testing.T) {
	valid := traceLine(t, "t1")
	path := writeInput(t, valid[:len(valid)/2]+"\n")
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if strings.Contains(errb.String(), "truncated") {
		t.Errorf("newline-terminated bad line misreported as truncation: %s", errb.String())
	}
	if !strings.Contains(errb.String(), "bad trace JSONL") {
		t.Errorf("want malformed-line diagnostic: %s", errb.String())
	}
}

// TestRunAnalysesServedTraces analyses a real export: client and server
// share one registry, so its ring holds both the client's rpc fragments and
// the server's handler fragments of each upload, train and predict. The
// export must load, stitch rpc:predict → http:predict, and report a
// non-empty stages section. Cross-process stitching is pinned separately by
// internal/client's TestClientServerTraceStitch.
func TestRunAnalysesServedTraces(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(service.NewServer(func(string, ...any) {}).WithRegistry(reg).Handler())
	defer srv.Close()
	c := client.New(srv.URL)
	c.Telemetry = reg
	ctx := context.Background()
	ds := synth.GenerateClean(synth.Spec{Name: "trace", Gen: synth.GenLinear, N: 120, D: 4, Noise: 0.2}, synth.Quick, 1)
	sp := ds.StratifiedSplit(0.7, rng.New(7))
	dsID, err := c.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	mID, err := c.Train(ctx, "local", dsID, pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Predict(ctx, "local", mID, sp.Test.X); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := telemetry.WriteTraceJSONL(&buf, reg.Traces().Snapshot()); err != nil {
		t.Fatal(err)
	}
	path := writeInput(t, buf.String())
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}

	frags, err := loadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stitched := false
	for _, tr := range mergeFragments(frags) {
		if tr.Root.Name != "rpc:predict" {
			continue
		}
		for _, kid := range tr.Root.Children {
			stitched = stitched || kid.Name == "http:predict"
		}
	}
	if !stitched {
		t.Errorf("no rpc:predict trace has the server's http:predict grafted under it (%d fragments)", len(frags))
	}

	_, report, _ := strings.Cut(out.String(), "== stages")
	stages, _, _ := strings.Cut(report, "\n\n")
	if !strings.Contains(stages, "\nrpc:predict ") || !strings.Contains(stages, "\nhttp:predict ") {
		t.Errorf("stages section lacks the predict spans:\n%s", out.String())
	}
}
