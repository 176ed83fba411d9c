package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "route", "train")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("requests_total", "route", "train"); again != c {
		t.Fatal("same name+labels must return the same counter")
	}
	if other := r.Counter("requests_total", "route", "predict"); other == c {
		t.Fatal("different labels must return a different counter")
	}

	g := r.Gauge("in_flight")
	g.Inc()
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 1 {
		t.Fatalf("gauge = %d, want 1", got)
	}
	g.Set(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge = %d, want 42", got)
	}
}

func TestHistogramCountSumQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "stage", "fit")
	// 100 observations spread uniformly across 1ms..100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	wantSum := 0.0
	for i := 1; i <= 100; i++ {
		wantSum += float64(i) / 1000
	}
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), wantSum)
	}
	// Bucketed quantiles are approximations: p50 of 1..100ms must land
	// within the bucket straddling 50ms (25ms..50ms or 50ms..100ms).
	if q := h.Quantile(0.5); q < 0.025 || q > 0.1 {
		t.Fatalf("p50 = %v, want within [0.025, 0.1]", q)
	}
	if q99, q50 := h.Quantile(0.99), h.Quantile(0.5); q99 < q50 {
		t.Fatalf("p99 %v < p50 %v", q99, q50)
	}
	if q := NewRegistry().Histogram("empty").Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("h", []float64{0.001, 0.01})
	h.Observe(5) // beyond every bound → +Inf bucket
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	// +Inf observations are attributed to the largest finite bound.
	if q := h.Quantile(0.99); q != 0.01 {
		t.Fatalf("overflow quantile = %v, want 0.01", q)
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c", "worker", "w").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", "stage", "s").Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c", "worker", "w").Value(); got != 4000 {
		t.Fatalf("counter = %d, want 4000", got)
	}
	if got := r.Histogram("h", "stage", "s").Count(); got != 4000 {
		t.Fatalf("histogram count = %d, want 4000", got)
	}
}

// Describe may rename a family's help while another goroutine renders the
// exposition (a scrape during start-up). Run under -race: the help text is
// read without the registry lock, so it must be safe to read while it is
// replaced, and every render shows one whole text.
func TestDescribeDuringExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "route", "train").Inc()
	helps := []string{"HTTP requests by route.", "Requests served, by route."}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.Describe("requests_total", helps[i%2])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			var buf bytes.Buffer
			r.WritePrometheus(&buf)
			out := buf.String()
			if strings.Contains(out, "# HELP") &&
				!strings.Contains(out, "# HELP requests_total "+helps[0]+"\n") &&
				!strings.Contains(out, "# HELP requests_total "+helps[1]+"\n") {
				t.Errorf("exposition shows no whole help text:\n%s", out)
				return
			}
		}
	}()
	wg.Wait()
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Describe("requests_total", "HTTP requests by route.")
	r.Counter("requests_total", "route", "train").Add(3)
	r.Gauge("in_flight").Set(2)
	r.HistogramBuckets("lat", []float64{0.01, 0.1}, "route", "train").Observe(0.05)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP requests_total HTTP requests by route.",
		"# TYPE requests_total counter",
		`requests_total{route="train"} 3`,
		"# TYPE in_flight gauge",
		"in_flight 2",
		"# TYPE lat histogram",
		`lat_bucket{route="train",le="0.01"} 0`,
		`lat_bucket{route="train",le="0.1"} 1`,
		`lat_bucket{route="train",le="+Inf"} 1`,
		`lat_sum{route="train"} 0.05`,
		`lat_count{route="train"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "k", `a"b\c`).Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `c{k="a\"b\\c"} 1`) {
		t.Fatalf("label not escaped:\n%s", buf.String())
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "a", "b").Add(7)
	r.Histogram("h", "stage", "fit").Observe(0.002)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap SnapshotData
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 7 || snap.Counters[0].Labels["a"] != "b" {
		t.Fatalf("counters %+v", snap.Counters)
	}
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 1 {
		t.Fatalf("histograms %+v", snap.Histograms)
	}
}

func TestMetricKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind collision")
		}
	}()
	r.Gauge("x")
}

// A kind collision panics on a new series of the family too, not only on
// an existing one.
func TestMetricKindCollisionPanicsOnNewSeries(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "a", "1").Inc()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind collision")
		}
	}()
	r.Histogram("x", "a", "2")
}

// The context StartSpan returns is its parent's in every other respect:
// values, deadline and cancellation all reach through it.
func TestSpanContextKeepsParent(t *testing.T) {
	type key struct{}
	parent, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
	ctx, root := StartSpan(WithRegistry(parent, NewRegistry()), "root")
	ctx, child := StartSpan(ctx, "child")
	if SpanFrom(ctx) != child {
		t.Fatal("SpanFrom does not return the innermost span")
	}
	if got := ctx.Value(key{}); got != "v" {
		t.Fatalf("parent value = %v, want v", got)
	}
	if RequestID(ctx) != "" {
		t.Fatal("request id appeared from nowhere")
	}
	derived, stop := context.WithCancel(ctx)
	defer stop()
	cancel()
	<-derived.Done()
	if ctx.Err() != context.Canceled {
		t.Fatalf("span context err = %v, want canceled", ctx.Err())
	}
	child.End()
	root.End()
}

func TestSpansNestAndRecord(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)
	ctx, outer := StartSpan(ctx, "measure")
	_, inner := StartSpan(ctx, "fit")
	if inner.Path() != "measure/fit" {
		t.Fatalf("path = %q", inner.Path())
	}
	if d := inner.End(); d < 0 {
		t.Fatalf("negative duration %v", d)
	}
	inner.End() // double-End must not double-count
	outer.End()
	if got := r.Histogram(StageHistogram, "stage", "fit").Count(); got != 1 {
		t.Fatalf("fit stage count = %d, want 1", got)
	}
	if got := r.Histogram(StageHistogram, "stage", "measure").Count(); got != 1 {
		t.Fatalf("measure stage count = %d, want 1", got)
	}
}

func TestTimeHelper(t *testing.T) {
	r := NewRegistry()
	stop := r.Time("score")
	time.Sleep(time.Millisecond)
	if d := stop(); d < time.Millisecond {
		t.Fatalf("duration %v too short", d)
	}
	if got := r.Histogram(StageHistogram, "stage", "score").Count(); got != 1 {
		t.Fatalf("stage count = %d", got)
	}
}

func TestRequestIDs(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == "" || a == b {
		t.Fatalf("request ids not unique: %q %q", a, b)
	}
	ctx := WithRequestID(context.Background(), a)
	if got := RequestID(ctx); got != a {
		t.Fatalf("RequestID = %q, want %q", got, a)
	}
	if got := RequestID(context.Background()); got != "" {
		t.Fatalf("empty context RequestID = %q", got)
	}
}

func TestWriteSummary(t *testing.T) {
	r := NewRegistry()
	var empty bytes.Buffer
	WriteSummary(&empty, r)
	if empty.Len() != 0 {
		t.Fatalf("empty registry summary wrote %q", empty.String())
	}
	r.Time("fit")()
	r.Counter("mlaas_client_retries_total", "endpoint", "train").Add(2)
	r.Gauge("in_flight").Set(1)
	var buf bytes.Buffer
	WriteSummary(&buf, r)
	out := buf.String()
	for _, want := range []string{"telemetry summary", StageHistogram, "fit", "mlaas_client_retries_total{endpoint=train}", "in_flight"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}
