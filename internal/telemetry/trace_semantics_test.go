package telemetry

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"
)

// These tests pin what a kept trace shows: it is the tree as it stood when
// the root ended, and nothing that happens afterwards changes it.

func onlyTrace(t *testing.T, reg *Registry) TraceData {
	t.Helper()
	traces := reg.Traces().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	return traces[0]
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A child still running when its root ends is shown Unfinished, with the
// duration it had reached at the root's end, and its own later End does
// not change the kept trace.
func TestTraceLateChildShownUnfinished(t *testing.T) {
	reg := NewRegistry()
	ctx, root := StartSpan(WithRegistry(context.Background(), reg), "root")
	_, done := StartSpan(ctx, "done")
	done.End()
	_, late := StartSpan(ctx, "late")
	time.Sleep(time.Millisecond)
	root.End()
	before := mustJSON(t, onlyTrace(t, reg))

	time.Sleep(2 * time.Millisecond)
	lateDur := late.End()
	tr := onlyTrace(t, reg)
	if after := mustJSON(t, tr); after != before {
		t.Fatalf("late child's End changed the kept trace:\nbefore %s\nafter  %s", before, after)
	}
	if len(tr.Root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(tr.Root.Children))
	}
	if tr.Root.Children[0].Unfinished {
		t.Fatal("child that ended before its root is marked unfinished")
	}
	lc := tr.Root.Children[1]
	if !lc.Unfinished {
		t.Fatal("child that ended after its root is not marked unfinished")
	}
	// rootEnd − childStart: the root's end measured from the child's start.
	want := tr.Root.DurationSeconds - float64(lc.StartUnixNano-tr.Root.StartUnixNano)/1e9
	if math.Abs(lc.DurationSeconds-want) > 1e-4 {
		t.Fatalf("late child duration %v, want rootEnd − childStart ≈ %v", lc.DurationSeconds, want)
	}
	if lateDur.Seconds() <= lc.DurationSeconds {
		t.Fatalf("late End returned %v, not longer than the frozen %vs", lateDur, lc.DurationSeconds)
	}
	if got := late.End(); got != lateDur {
		t.Fatalf("repeat End on the late child returned %v, want %v", got, lateDur)
	}
	if n := reg.Histogram(StageHistogram, "stage", "late").Count(); n != 1 {
		t.Fatalf("late child recorded %d stage observations, want 1", n)
	}
}

// Attributes, errors and spans added after the root ended are invisible in
// the kept trace and do not change its span counts; the new span still
// times itself into the stage histogram.
func TestTraceFrozenAtRootEnd(t *testing.T) {
	reg := NewRegistry()
	ctx, root := StartSpan(WithRegistry(context.Background(), reg), "root")
	root.SetAttr("route", "predict")
	cctx, child := StartSpan(ctx, "child")
	child.SetAttr("path", "forward")
	child.End()
	rootDur := root.End()
	before := mustJSON(t, onlyTrace(t, reg))

	root.SetAttr("route", "train").SetAttr("status", "200").SetError(errors.New("after root"))
	child.SetAttr("path", "refit").SetError(errors.New("after child"))
	_, extra := StartSpan(cctx, "extra")
	extra.SetAttr("k", "v")
	if d := extra.End(); d <= 0 {
		t.Fatalf("span started under an ended root timed %v", d)
	}
	_, extra2 := StartSpan(ctx, "extra")
	extra2.End()

	tr := onlyTrace(t, reg)
	if after := mustJSON(t, tr); after != before {
		t.Fatalf("writes after the root ended changed the kept trace:\nbefore %s\nafter  %s", before, after)
	}
	if tr.Spans != 2 || tr.DroppedSpans != 0 || tr.Error != "" {
		t.Fatalf("spans=%d dropped=%d error=%q, want 2, 0, \"\"", tr.Spans, tr.DroppedSpans, tr.Error)
	}
	if tr.Root.Attrs["route"] != "predict" || len(tr.Root.Attrs) != 1 {
		t.Fatalf("root attrs %v", tr.Root.Attrs)
	}
	if n := reg.Histogram(StageHistogram, "stage", "extra").Count(); n != 2 {
		t.Fatalf("spans under an ended root recorded %d stage observations, want 2", n)
	}
	if got := root.End(); got != rootDur {
		t.Fatalf("repeat root End returned %v, want %v", got, rootDur)
	}
	if n := reg.Histogram(StageHistogram, "stage", "root").Count(); n != 1 {
		t.Fatalf("repeat root End recorded again: %d observations", n)
	}
	if n := reg.Traces().Len(); n != 1 {
		t.Fatalf("repeat root End offered again: %d traces kept", n)
	}
}

// A trace keeps at most MaxSpansPerTrace spans; the rest are counted as
// dropped but still time themselves.
func TestTraceSpanCap(t *testing.T) {
	reg := NewRegistry()
	ctx, root := StartSpan(WithRegistry(context.Background(), reg), "root")
	const extra = 7
	for i := 0; i < MaxSpansPerTrace-1+extra; i++ {
		_, sp := StartSpan(ctx, "c")
		sp.End()
	}
	root.End()
	tr := onlyTrace(t, reg)
	if tr.Spans != MaxSpansPerTrace || tr.DroppedSpans != extra {
		t.Fatalf("spans=%d dropped=%d, want %d, %d", tr.Spans, tr.DroppedSpans, MaxSpansPerTrace, extra)
	}
	if len(tr.Root.Children) != MaxSpansPerTrace-1 {
		t.Fatalf("root has %d children, want %d", len(tr.Root.Children), MaxSpansPerTrace-1)
	}
	if n := reg.Histogram(StageHistogram, "stage", "c").Count(); n != MaxSpansPerTrace-1+extra {
		t.Fatalf("stage observations %d, want %d", n, MaxSpansPerTrace-1+extra)
	}
}

// The trace's error is the first one found walking the tree depth-first,
// parent before children: a grandchild's error reaches the trace, and an
// error that ends earlier in time but sits later in the walk does not win.
func TestTraceErrorFromGrandchild(t *testing.T) {
	reg := NewRegistry()
	reg.ConfigureTraces(TraceConfig{Capacity: 4, SampleRate: 0, Seed: 1})
	ctx, root := StartSpan(WithRegistry(context.Background(), reg), "root")
	c1ctx, c1 := StartSpan(ctx, "c1")
	_, c2 := StartSpan(ctx, "c2")
	c2.SetError(errors.New("second child"))
	c2.End()
	_, g := StartSpan(c1ctx, "g")
	g.SetError(errors.New("grandchild"))
	g.End()
	c1.End()
	root.End()
	tr := onlyTrace(t, reg)
	if tr.Error != "grandchild" {
		t.Fatalf("trace error %q, want the grandchild's", tr.Error)
	}
	if got := tr.Root.Children[0].Children[0].Error; got != "grandchild" {
		t.Fatalf("grandchild span error %q", got)
	}
}

// Get and Summaries describe the same traces Snapshot returns.
func TestTraceReadersAgree(t *testing.T) {
	reg := NewRegistry()
	base := WithRegistry(context.Background(), reg)
	for i := 0; i < 5; i++ {
		ctx, root := StartSpan(base, "root")
		root.SetAttr("i", string(rune('a'+i)))
		_, c := StartSpan(ctx, "child")
		if i == 3 {
			c.SetError(errors.New("boom"))
		}
		c.End()
		root.End()
	}
	snap := reg.Traces().Snapshot()
	sums := reg.Traces().Summaries()
	if len(snap) != 5 || len(sums) != 5 {
		t.Fatalf("snapshot %d, summaries %d, want 5 each", len(snap), len(sums))
	}
	for i, tr := range snap {
		got, ok := reg.Traces().Get(tr.TraceID)
		if !ok {
			t.Fatalf("Get(%s) missed a snapshotted trace", tr.TraceID)
		}
		if mustJSON(t, got) != mustJSON(t, tr) {
			t.Fatalf("Get and Snapshot disagree:\n%s\n%s", mustJSON(t, got), mustJSON(t, tr))
		}
		want := TraceSummary{
			TraceID:         tr.TraceID,
			Name:            tr.Root.Name,
			DurationSeconds: tr.DurationSeconds,
			Spans:           tr.Spans,
			Error:           tr.Error,
			StartUnixNano:   tr.Root.StartUnixNano,
		}
		if s := sums[len(sums)-1-i]; s != want {
			t.Fatalf("summary %+v, want %+v", s, want)
		}
	}
	if _, ok := reg.Traces().Get(NewTraceID()); ok {
		t.Fatal("Get found an id that was never recorded")
	}
}
