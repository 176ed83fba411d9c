package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/telemetry"
)

func TestRetriesTransient5xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, `{"error":"overloaded"}`, http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode([]any{})
	}))
	defer srv.Close()
	c := New(srv.URL)
	c.Backoff = time.Millisecond
	if _, err := c.Platforms(context.Background()); err != nil {
		t.Fatalf("should have retried through 5xx: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d calls, want 3", calls.Load())
	}
}

func TestDoesNotRetry4xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad dataset"}`, http.StatusBadRequest)
	}))
	defer srv.Close()
	c := New(srv.URL)
	c.Backoff = time.Millisecond
	if _, err := c.Platforms(context.Background()); err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls for a 400, want 1 (no retry)", calls.Load())
	}
}

func TestGivesUpAfterMaxRetries(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"nope"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := New(srv.URL)
	c.MaxRetries = 2
	c.Backoff = time.Millisecond
	if _, err := c.Platforms(context.Background()); err == nil {
		t.Fatal("expected terminal failure")
	}
	if calls.Load() != 3 { // initial + 2 retries
		t.Fatalf("%d calls, want 3", calls.Load())
	}
}

func TestErrorMessageSurfaced(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		_, _ = w.Write([]byte(`{"error":"unknown platform \"watson\""}`))
	}))
	defer srv.Close()
	c := New(srv.URL)
	_, err := c.Surface(context.Background(), "watson")
	if err == nil {
		t.Fatal("expected error")
	}
	got := err.Error()
	if !strings.HasPrefix(got, `api: 404: unknown platform "watson"`) {
		t.Fatalf("error message %q", got)
	}
	// The request id rides along for server-log correlation.
	if !strings.Contains(got, "(request ") {
		t.Fatalf("error message %q lacks request id", got)
	}
}

func TestContextCancellationStopsRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"x"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	c := New(srv.URL)
	c.MaxRetries = 100
	c.Backoff = 50 * time.Millisecond
	reg := telemetry.NewRegistry()
	c.Telemetry = reg
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, err := c.Platforms(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v, want one wrapping context.DeadlineExceeded", err)
	}
	// Jittered backoff is at least 25ms, so at most three retries fit in
	// the 60ms budget; the other 97 must never start.
	if n := reg.Counter("mlaas_client_retries_total", "endpoint", "platforms").Value(); n > 3 {
		t.Fatalf("%d retries after the deadline, want ≤ 3", n)
	}
}

func TestRateLimiterThrottles(t *testing.T) {
	rl := NewRateLimiter(100, 1) // 1 burst, 100/s refill → ~10ms per extra token
	defer rl.Stop()
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 4; i++ {
		if err := rl.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// 1 immediate + 3 refills ≥ ~30ms ideally; allow generous slack but
	// require evidence of throttling.
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("4 tokens in %v — limiter not throttling", elapsed)
	}
}

func TestRateLimiterHonorsContext(t *testing.T) {
	rl := NewRateLimiter(0.1, 1) // very slow refill
	defer rl.Stop()
	ctx := context.Background()
	if err := rl.Wait(ctx); err != nil { // consume the burst token
		t.Fatal(err)
	}
	ctx2, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if err := rl.Wait(ctx2); err == nil {
		t.Fatal("expected context deadline error")
	}
}

// fakeService implements just enough of the MLaaS API to exercise the
// client's full measurement path without importing the service package
// (which would create an import cycle in this test binary).
func fakeService(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/platforms", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode([]map[string]any{{"name": "fake", "complexity": 0}})
	})
	mux.HandleFunc("GET /v1/platforms/{p}/surface", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"platform": r.PathValue("p")})
	})
	mux.HandleFunc("POST /v1/platforms/{p}/datasets", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			X [][]float64 `json:"x"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || len(req.X) == 0 {
			http.Error(w, `{"error":"bad dataset"}`, http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{"id":"ds-1","samples":4,"columns":1}`))
	})
	mux.HandleFunc("POST /v1/platforms/{p}/models", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Dataset string `json:"dataset"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Dataset != "ds-1" {
			http.Error(w, `{"error":"unknown dataset"}`, http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{"id":"m-1"}`))
	})
	mux.HandleFunc("POST /v1/platforms/{p}/models/{m}/predictions", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Instances [][]float64 `json:"instances"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, `{"error":"bad request"}`, http.StatusBadRequest)
			return
		}
		labels := make([]int, len(req.Instances))
		for i, inst := range req.Instances {
			if inst[0] > 0 {
				labels[i] = 1
			}
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"labels": labels})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestMeasureEndToEndAgainstFake(t *testing.T) {
	srv := fakeService(t)
	c := New(srv.URL)
	split := dataset.Split{
		Train: &dataset.Dataset{Name: "tr", X: [][]float64{{-1}, {-2}, {1}, {2}}, Y: []int{0, 0, 1, 1}},
		Test:  &dataset.Dataset{Name: "te", X: [][]float64{{-3}, {3}}, Y: []int{0, 1}},
	}
	scores, err := c.Measure(context.Background(), "fake", split, pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if scores.F1 != 1 {
		t.Fatalf("fake perfectly separable measurement F1 %v", scores.F1)
	}
}

func TestClientSurfaceAndPlatforms(t *testing.T) {
	srv := fakeService(t)
	c := New(srv.URL)
	infos, err := c.Platforms(context.Background())
	if err != nil || len(infos) != 1 || infos[0].Name != "fake" {
		t.Fatalf("platforms %v, %v", infos, err)
	}
	doc, err := c.Surface(context.Background(), "fake")
	if err != nil || doc.Platform != "fake" {
		t.Fatalf("surface %v, %v", doc, err)
	}
}

func TestMeasureSurfacesTrainFailure(t *testing.T) {
	srv := fakeService(t)
	c := New(srv.URL)
	// Upload succeeds but Train 404s when the dataset id is wrong; force
	// that by calling MeasureOn with a bogus id.
	split := dataset.Split{
		Train: &dataset.Dataset{Name: "tr", X: [][]float64{{1}}, Y: []int{1}},
		Test:  &dataset.Dataset{Name: "te", X: [][]float64{{1}}, Y: []int{1}},
	}
	if _, err := c.MeasureOn(context.Background(), "fake", "ds-999", split, pipeline.Config{}, 1); err == nil {
		t.Fatal("expected train failure to surface")
	}
}

func TestLimiterGatesRequests(t *testing.T) {
	srv := fakeService(t)
	c := New(srv.URL)
	c.Limiter = NewRateLimiter(1000, 1)
	defer c.Limiter.Stop()
	// Two quick calls must both succeed (limiter refills) — this exercises
	// the limiter path inside do().
	for i := 0; i < 2; i++ {
		if _, err := c.Platforms(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIsRetryable(t *testing.T) {
	if IsRetryable(&apiErr{Status: 400}) {
		t.Fatal("400 must not be retryable")
	}
	if !IsRetryable(&apiErr{Status: 503}) {
		t.Fatal("503 must be retryable")
	}
	if IsRetryable(nil) {
		t.Fatal("nil error is not retryable")
	}
}

func TestPredictBatchedStitchesChunksInOrder(t *testing.T) {
	var predictCalls atomic.Int32
	srv := fakeService(t)
	// Wrap the fake to count prediction requests.
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/predictions") {
			predictCalls.Add(1)
		}
		proxyTo(t, w, r, srv.URL)
	}))
	t.Cleanup(counting.Close)

	c := New(counting.URL)
	instances := make([][]float64, 25)
	for i := range instances {
		// Alternate sign so the fake's label (sign of instance[0]) encodes
		// the instance's position — any mis-stitching scrambles it.
		v := float64(i + 1)
		if i%2 == 1 {
			v = -v
		}
		instances[i] = []float64{v}
	}
	want, err := c.Predict(context.Background(), "fake", "m-1", instances)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.PredictBatched(context.Background(), "fake", "m-1", instances, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d labels, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("label %d is %d, want %d (stitching out of order)", i, got[i], want[i])
		}
	}
	// 1 unbatched call + ceil(25/4)=7 chunked calls.
	if n := predictCalls.Load(); n != 8 {
		t.Fatalf("%d prediction requests, want 8 (1 full + 7 chunks of 4)", n)
	}
}

func TestPredictBatchedSmallSetSingleRequest(t *testing.T) {
	var predictCalls atomic.Int32
	srv := fakeService(t)
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/predictions") {
			predictCalls.Add(1)
		}
		proxyTo(t, w, r, srv.URL)
	}))
	t.Cleanup(counting.Close)

	c := New(counting.URL)
	instances := [][]float64{{1}, {-1}, {2}}
	if _, err := c.PredictBatched(context.Background(), "fake", "m-1", instances, 0); err != nil {
		t.Fatal(err)
	}
	if n := predictCalls.Load(); n != 1 {
		t.Fatalf("%d requests for a set under the default batch, want 1", n)
	}
}

// proxyTo forwards one request to the backing fake service.
func proxyTo(t *testing.T, w http.ResponseWriter, r *http.Request, backend string) {
	t.Helper()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, backend+r.URL.Path, r.Body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header = r.Header
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		t.Fatal(err)
	}
}
