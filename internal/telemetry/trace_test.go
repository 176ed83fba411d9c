package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// isHex reports whether s is lowercase hex digits.
func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// A finished root span must deliver its whole tree — ids, parent links,
// attrs, error — to the registry's flight recorder.
func TestTraceTreeRetained(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)

	ctx, root := StartSpan(ctx, "http:predict")
	root.SetAttr("platform", "local").SetAttr("route", "predict")
	cctx, fit := StartSpan(ctx, "fit")
	fit.End()
	_, fwd := StartSpan(cctx, "forward")
	fwd.SetAttr("cache", "hit")
	fwd.End()
	root.End()

	traces := reg.Traces().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if len(tr.TraceID) != 32 || !isHex(tr.TraceID) {
		t.Fatalf("trace id %q is not 32 hex chars", tr.TraceID)
	}
	if tr.Spans != 3 {
		t.Fatalf("trace records %d spans, want 3", tr.Spans)
	}
	if tr.Root.Name != "http:predict" || tr.Root.Attrs["platform"] != "local" {
		t.Fatalf("root span mangled: %+v", tr.Root)
	}
	if len(tr.Root.Children) != 1 || tr.Root.Children[0].Name != "fit" {
		t.Fatalf("root children mangled: %+v", tr.Root.Children)
	}
	fitData := tr.Root.Children[0]
	if fitData.ParentID != tr.Root.SpanID {
		t.Fatalf("fit parent %q != root span %q", fitData.ParentID, tr.Root.SpanID)
	}
	if len(fitData.Children) != 1 || fitData.Children[0].Name != "forward" {
		t.Fatalf("forward should nest under fit (ctx from fit's StartSpan): %+v", fitData.Children)
	}
	if got := fitData.Children[0].Attrs["cache"]; got != "hit" {
		t.Fatalf("forward attrs lost: %+v", fitData.Children[0].Attrs)
	}
	if fitData.Children[0].Path != "http:predict/fit/forward" {
		t.Fatalf("path = %q", fitData.Children[0].Path)
	}
	if _, ok := reg.Traces().Get(tr.TraceID); !ok {
		t.Fatal("Get by trace id failed")
	}
}

// Satellite: repeat End calls must return the originally recorded duration,
// not a fresh (still growing) reading.
func TestSpanEndRepeatReturnsOriginalDuration(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)
	_, sp := StartSpan(ctx, "once")
	first := sp.End()
	time.Sleep(2 * time.Millisecond)
	second := sp.End()
	if second != first {
		t.Fatalf("repeat End returned %v, want the original %v", second, first)
	}
	if got := reg.Histogram(StageHistogram, "stage", "once").Count(); got != 1 {
		t.Fatalf("stage histogram count = %d, want 1", got)
	}
}

// When the ring is full the oldest kept trace is evicted, FIFO.
func TestTraceBufferEvictionOrder(t *testing.T) {
	reg := NewRegistry()
	buf := reg.ConfigureTraces(TraceConfig{Capacity: 3, KeepSlowest: 0, SampleRate: 1, Seed: 1})
	for i := 1; i <= 5; i++ {
		ctx := WithRegistry(context.Background(), reg)
		_, sp := StartSpan(ctx, fmt.Sprintf("t%d", i))
		sp.End()
	}
	got := buf.Snapshot()
	if len(got) != 3 {
		t.Fatalf("kept %d traces, want 3", len(got))
	}
	for i, want := range []string{"t3", "t4", "t5"} {
		if got[i].Root.Name != want {
			t.Fatalf("slot %d = %q, want %q (FIFO eviction order)", i, got[i].Root.Name, want)
		}
	}
	if n := reg.Counter(TracesEvictedTotal).Value(); n != 2 {
		t.Fatalf("evicted counter = %d, want 2", n)
	}
	sums := buf.Summaries()
	if len(sums) != 3 || sums[0].Name != "t5" {
		t.Fatalf("summaries should list newest first, got %+v", sums)
	}
}

// Tail sampling is a deterministic function of the seed and offer order.
func TestTraceSamplingDeterministic(t *testing.T) {
	kept := func(seed uint64) []string {
		reg := NewRegistry()
		buf := reg.ConfigureTraces(TraceConfig{Capacity: 64, KeepSlowest: 0, SampleRate: 0.5, Seed: seed})
		for i := 0; i < 32; i++ {
			buf.offer(TraceData{TraceID: fmt.Sprintf("%032x", i+1), Root: SpanData{Name: fmt.Sprintf("t%d", i)}})
		}
		var names []string
		for _, tr := range buf.Snapshot() {
			names = append(names, tr.Root.Name)
		}
		return names
	}
	a, b := kept(7), kept(7)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatalf("same seed kept different traces:\n%v\n%v", a, b)
	}
	if len(a) == 0 || len(a) == 32 {
		t.Fatalf("sampling at 0.5 kept %d/32 — coin looks broken", len(a))
	}
	c := kept(8)
	if strings.Join(a, ",") == strings.Join(c, ",") {
		t.Fatalf("seeds 7 and 8 kept identical traces: %v", a)
	}
}

// Errors and the slowest traces bypass sampling entirely.
func TestTraceKeepPolicy(t *testing.T) {
	reg := NewRegistry()
	buf := reg.ConfigureTraces(TraceConfig{Capacity: 16, KeepSlowest: 2, SampleRate: 0, Seed: 1})

	buf.offer(TraceData{TraceID: strings.Repeat("1", 32), DurationSeconds: 0.010, Root: SpanData{Name: "slow-a"}})
	buf.offer(TraceData{TraceID: strings.Repeat("2", 32), DurationSeconds: 0.020, Root: SpanData{Name: "slow-b"}})
	// Faster than both incumbents and not an error: sampled out at rate 0.
	buf.offer(TraceData{TraceID: strings.Repeat("3", 32), DurationSeconds: 0.001, Root: SpanData{Name: "fast"}})
	// Errors always stay, however fast.
	buf.offer(TraceData{TraceID: strings.Repeat("4", 32), DurationSeconds: 0.0001, Error: "boom", Root: SpanData{Name: "err"}})
	// Slower than the slowest-2 floor: admitted.
	buf.offer(TraceData{TraceID: strings.Repeat("5", 32), DurationSeconds: 0.030, Root: SpanData{Name: "slow-c"}})

	var names []string
	for _, tr := range buf.Snapshot() {
		names = append(names, tr.Root.Name)
	}
	if strings.Join(names, ",") != "slow-a,slow-b,err,slow-c" {
		t.Fatalf("kept %v", names)
	}
	if n := reg.Counter(TracesDroppedTotal).Value(); n != 1 {
		t.Fatalf("dropped counter = %d, want 1", n)
	}
	if n := reg.Counter(TracesKeptTotal, "reason", "error").Value(); n != 1 {
		t.Fatalf("kept{reason=error} = %d, want 1", n)
	}
}

// A span tree whose descendant failed makes the whole trace an error trace.
func TestTraceErrorPropagatesFromChild(t *testing.T) {
	reg := NewRegistry()
	reg.ConfigureTraces(TraceConfig{Capacity: 4, KeepSlowest: 0, SampleRate: 0, Seed: 1})
	ctx := WithRegistry(context.Background(), reg)
	ctx, root := StartSpan(ctx, "rpc:train")
	_, child := StartSpan(ctx, "fit")
	child.SetError(errors.New("singular matrix"))
	child.End()
	root.End()
	traces := reg.Traces().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("error trace was sampled out: kept %d", len(traces))
	}
	if traces[0].Error != "singular matrix" {
		t.Fatalf("trace error = %q", traces[0].Error)
	}
}

func TestTraceParentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	h := FormatTraceParent(tid, sid)
	gotT, gotS, ok := ParseTraceParent(h)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("round trip %q -> %q %q %v", h, gotT, gotS, ok)
	}
	for _, bad := range []string{
		"",
		"00-zz-11-01",
		"01-" + tid + "-" + sid + "-01", // wrong version
		"00-" + strings.Repeat("0", 32) + "-" + sid + "-01", // all-zero trace id
		"00-" + tid + "-" + sid,                             // missing flags
		"00-" + tid + "-" + sid + "-",                       // empty flags
		"00-" + tid + "-" + sid + "-1",                      // one flag digit
		"00-" + tid + "-" + sid + "-zzzz",                   // flags not two hex digits
		"00-" + tid + "-" + sid + "-zz",                     // flags not hex
		"00-" + tid + "-" + sid + "-01-extra",               // trailing fields
	} {
		if _, _, ok := ParseTraceParent(bad); ok {
			t.Fatalf("ParseTraceParent accepted %q", bad)
		}
		if n := testing.AllocsPerRun(10, func() { ParseTraceParent(bad) }); n != 0 {
			t.Fatalf("rejecting %q allocated %v times", bad, n)
		}
	}
	upper := " 00-" + strings.ToUpper(tid) + "-" + strings.ToUpper(sid) + "-0A "
	if gotT, gotS, ok := ParseTraceParent(upper); !ok || gotT != tid || gotS != sid {
		t.Fatalf("ParseTraceParent(%q) = %q %q %v, want the lowercased ids", upper, gotT, gotS, ok)
	}
	if n := testing.AllocsPerRun(10, func() { ParseTraceParent(upper) }); n > 2 {
		t.Fatalf("accepting an uppercase header allocated %v times, want at most the two ids", n)
	}
}

// A root span started under WithRemoteParent joins the caller's trace.
func TestRemoteParentStitchesTrace(t *testing.T) {
	reg := NewRegistry()
	tid, sid := NewTraceID(), NewSpanID()
	ctx := WithRemoteParent(WithRegistry(context.Background(), reg), tid, sid)
	_, sp := StartSpan(ctx, "http:train")
	if sp.TraceID() != tid {
		t.Fatalf("span trace id %q, want remote %q", sp.TraceID(), tid)
	}
	sp.End()
	tr, ok := reg.Traces().Get(tid)
	if !ok {
		t.Fatal("stitched trace not kept")
	}
	if tr.Root.ParentID != sid {
		t.Fatalf("root parent %q, want remote span %q", tr.Root.ParentID, sid)
	}
}

// TimeCtx under a span records into both the trace tree and the stage
// histogram — exactly once.
func TestTimeCtxRecordsSpanAndHistogram(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)
	ctx, root := StartSpan(ctx, "measure")
	stop := TimeCtx(ctx, "fit")
	stop()
	root.End()
	if got := reg.Histogram(StageHistogram, "stage", "fit").Count(); got != 1 {
		t.Fatalf("fit histogram count = %d, want 1", got)
	}
	tr := reg.Traces().Snapshot()
	if len(tr) != 1 || len(tr[0].Root.Children) != 1 || tr[0].Root.Children[0].Name != "fit" {
		t.Fatalf("fit span missing from trace: %+v", tr)
	}

	// Without a span in ctx it degrades to a plain registry timer.
	reg2 := NewRegistry()
	stop2 := TimeCtx(WithRegistry(context.Background(), reg2), "score")
	stop2()
	if got := reg2.Histogram(StageHistogram, "stage", "score").Count(); got != 1 {
		t.Fatalf("score histogram count = %d, want 1", got)
	}
	if got := reg2.Traces().Len(); got != 0 {
		t.Fatalf("plain timer produced %d traces", got)
	}
}

// Satellite: the stage and predict-path families use FineBuckets, so
// sub-millisecond quantiles stay accurate where DefBuckets crush them.
func TestFineBucketsSubMillisecondQuantiles(t *testing.T) {
	reg := NewRegistry()
	fine := reg.Histogram(PredictPathHistogram, "path", "forward")
	coarse := reg.HistogramBuckets("coarse_latency_seconds", DefBuckets)
	for us := 2; us <= 20; us += 2 { // 2,4,...,20µs — median 11µs
		v := float64(us) / 1e6
		fine.Observe(v)
		coarse.Observe(v)
	}
	if p50 := fine.Quantile(0.50); p50 < 6e-6 || p50 > 15e-6 {
		t.Fatalf("fine p50 = %.1fµs, want ~11µs", p50*1e6)
	}
	// Same data under DefBuckets: everything lands in the first (100µs)
	// bucket and the interpolated median is an order of magnitude off.
	if p50 := coarse.Quantile(0.50); p50 < 25e-6 {
		t.Fatalf("coarse p50 = %.1fµs — expected DefBuckets to overestimate", p50*1e6)
	}
	stage := reg.Histogram(StageHistogram, "stage", "predict")
	stage.Observe(10e-6)
	if p50 := stage.Quantile(0.50); p50 > 25e-6 {
		t.Fatalf("stage family did not pick up FineBuckets: p50 = %.1fµs", p50*1e6)
	}
}

// JSONL round-trips the full tree.
func TestTraceJSONLRoundTrip(t *testing.T) {
	reg := NewRegistry()
	ctx := WithRegistry(context.Background(), reg)
	for i := 0; i < 3; i++ {
		ctx2, root := StartSpan(ctx, "measure")
		root.SetAttr("platform", "bigml")
		_, fit := StartSpan(ctx2, "fit")
		fit.End()
		root.End()
	}
	out := reg.Traces().Snapshot()
	var buf bytes.Buffer
	if err := WriteTraceJSONL(&buf, out); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(out) {
		t.Fatalf("round trip %d -> %d traces", len(out), len(back))
	}
	for i := range back {
		if back[i].TraceID != out[i].TraceID || back[i].Root.Attrs["platform"] != "bigml" ||
			len(back[i].Root.Children) != 1 {
			t.Fatalf("trace %d mangled: %+v", i, back[i])
		}
	}
}

// Kept traces are built when read, while their spans may still be running
// on other goroutines: children end (and set attributes and errors) on
// their own goroutines around the root's End, and readers build the same
// traces in a loop. Run under -race. Every read of one trace must return
// the same bytes, because a trace is frozen when its root ends.
func TestTraceLazyBuildRace(t *testing.T) {
	reg := NewRegistry()
	base := WithRegistry(context.Background(), reg)
	buf := reg.Traces()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	seen := make([]map[string]string, 3)
	for r := range seen {
		seen[r] = map[string]string{}
		readers.Add(1)
		go func(seen map[string]string) {
			defer readers.Done()
			check := func(td TraceData) {
				b, err := json.Marshal(td)
				if err != nil {
					t.Error(err)
					return
				}
				if prev, ok := seen[td.TraceID]; ok && prev != string(b) {
					t.Errorf("trace %s changed between reads:\n%s\n%s", td.TraceID, prev, b)
				}
				seen[td.TraceID] = string(b)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, td := range buf.Snapshot() {
					check(td)
				}
				for _, s := range buf.Summaries() {
					if td, ok := buf.Get(s.TraceID); ok {
						check(td)
					}
				}
			}
		}(seen[r])
	}

	const roots, children = 20, 8
	for i := 0; i < roots; i++ {
		ctx, root := StartSpan(base, "root")
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < children; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cctx, sp := StartSpan(ctx, "child")
				<-start
				sp.SetAttr("n", strconv.Itoa(c))
				if c%3 == 0 {
					sp.SetError(errors.New("child failed"))
				}
				_, g := StartSpan(cctx, "grandchild")
				g.End()
				sp.End()
			}(c)
		}
		close(start)
		root.SetAttr("i", strconv.Itoa(i))
		root.End()
		wg.Wait()
	}
	close(stop)
	readers.Wait()

	if n := buf.Len(); n != roots {
		t.Fatalf("kept %d traces, want %d", n, roots)
	}
	for _, td := range buf.Snapshot() {
		if td.Spans > 1+2*children || td.Spans < 1 {
			t.Fatalf("trace %s records %d spans", td.TraceID, td.Spans)
		}
	}
}
