package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlaasbench/internal/telemetry"
)

// flakyServer fails the first failures requests with the given status, then
// answers 200 with an empty platform list.
func flakyServer(t *testing.T, failures int32, status int) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= failures {
			http.Error(w, `{"error":"injected"}`, status)
			return
		}
		_ = json.NewEncoder(w).Encode([]any{})
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestRetryTelemetryMatchesInjectedFailures(t *testing.T) {
	const injected = 4
	srv, calls := flakyServer(t, injected, http.StatusServiceUnavailable)
	reg := telemetry.NewRegistry()
	c := New(srv.URL)
	c.MaxRetries = 5
	c.Backoff = time.Millisecond
	c.Telemetry = reg
	if _, err := c.Platforms(context.Background()); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != injected+1 {
		t.Fatalf("%d calls, want %d", calls.Load(), injected+1)
	}
	if got := reg.Counter("mlaas_client_retries_total", "endpoint", "platforms").Value(); got != injected {
		t.Fatalf("retries counter = %d, want %d (the injected failure count)", got, injected)
	}
	if got := reg.Counter("mlaas_client_requests_total", "endpoint", "platforms").Value(); got != 1 {
		t.Fatalf("requests counter = %d, want 1 logical request", got)
	}
	if got := reg.Histogram("mlaas_client_backoff_seconds", "endpoint", "platforms").Count(); got != injected {
		t.Fatalf("backoff observations = %d, want %d", got, injected)
	}
	if got := reg.Histogram("mlaas_client_request_duration_seconds", "endpoint", "platforms").Count(); got != injected+1 {
		t.Fatalf("attempt duration observations = %d, want %d", got, injected+1)
	}
	if got := reg.Counter("mlaas_client_errors_total", "endpoint", "platforms").Value(); got != 0 {
		t.Fatalf("errors counter = %d for a call that eventually succeeded", got)
	}
}

func TestTerminalFailureCountsAsError(t *testing.T) {
	srv, _ := flakyServer(t, 1000, http.StatusInternalServerError)
	reg := telemetry.NewRegistry()
	c := New(srv.URL)
	c.MaxRetries = 2
	c.Backoff = time.Millisecond
	c.Telemetry = reg
	if _, err := c.Platforms(context.Background()); err == nil {
		t.Fatal("expected terminal failure")
	}
	if got := reg.Counter("mlaas_client_errors_total", "endpoint", "platforms").Value(); got != 1 {
		t.Fatalf("errors counter = %d, want 1", got)
	}
	if got := reg.Counter("mlaas_client_retries_total", "endpoint", "platforms").Value(); got != 2 {
		t.Fatalf("retries counter = %d, want MaxRetries=2", got)
	}
}

func TestFailFast4xxNoRetryNoBackoff(t *testing.T) {
	srv, calls := flakyServer(t, 1000, http.StatusBadRequest)
	reg := telemetry.NewRegistry()
	c := New(srv.URL)
	c.Backoff = time.Millisecond
	c.Telemetry = reg
	if _, err := c.Platforms(context.Background()); err == nil {
		t.Fatal("expected 400 to fail")
	}
	if calls.Load() != 1 {
		t.Fatalf("%d calls for a 4xx, want 1", calls.Load())
	}
	if got := reg.Counter("mlaas_client_retries_total", "endpoint", "platforms").Value(); got != 0 {
		t.Fatalf("retries counter = %d for a fail-fast 4xx", got)
	}
	if got := reg.Histogram("mlaas_client_backoff_seconds", "endpoint", "platforms").Count(); got != 0 {
		t.Fatalf("backoff observed %d times for a fail-fast 4xx", got)
	}
}

func TestTransportErrorsAreRetried(t *testing.T) {
	// A closed server yields pure transport errors (connection refused).
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	srv.Close()
	reg := telemetry.NewRegistry()
	c := New(srv.URL)
	c.MaxRetries = 2
	c.Backoff = time.Millisecond
	c.Telemetry = reg
	if _, err := c.Platforms(context.Background()); err == nil {
		t.Fatal("expected transport failure")
	}
	if got := reg.Counter("mlaas_client_retries_total", "endpoint", "platforms").Value(); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
}

func TestContextCancellationAbortsMidBackoff(t *testing.T) {
	srv, calls := flakyServer(t, 1000, http.StatusInternalServerError)
	c := New(srv.URL)
	c.MaxRetries = 100
	c.Backoff = time.Hour // the first backoff sleep would block forever
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Platforms(ctx)
		done <- err
	}()
	// Wait for the first attempt to land, then cancel during backoff.
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected cancellation error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not abort the backoff sleep")
	}
	if calls.Load() != 1 {
		t.Fatalf("%d attempts, want 1 (cancelled before the retry fired)", calls.Load())
	}
}

func TestBackoffJitterSeededAndBounded(t *testing.T) {
	a := New("http://unused")
	a.Seed = 42
	b := New("http://unused")
	b.Seed = 42
	d := New("http://unused")
	d.Seed = 43
	var seqA, seqB, seqD []time.Duration
	base := 100 * time.Millisecond
	for i := 0; i < 16; i++ {
		seqA = append(seqA, a.jitteredSleep(base))
		seqB = append(seqB, b.jitteredSleep(base))
		seqD = append(seqD, d.jitteredSleep(base))
	}
	differs := false
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, seqA[i], seqB[i])
		}
		if seqA[i] < base/2 || seqA[i] > base {
			t.Fatalf("jittered sleep %v outside [base/2, base]", seqA[i])
		}
		if seqA[i] != seqD[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different seeds produced identical jitter streams")
	}
}

func TestBackoffIsCapped(t *testing.T) {
	srv, _ := flakyServer(t, 1000, http.StatusInternalServerError)
	c := New(srv.URL)
	c.MaxRetries = 6
	c.Backoff = 2 * time.Millisecond
	c.MaxBackoff = 8 * time.Millisecond
	reg := telemetry.NewRegistry()
	c.Telemetry = reg
	if _, err := c.Platforms(context.Background()); err == nil {
		t.Fatal("expected failure")
	}
	// The histogram observes the requested sleeps, and jitter only shortens
	// them, so the check is exact under any load: uncapped doubling would
	// request 2+4+8+16+32+64 = 126ms, capped at 8ms at most 2+4+8+8+8+8 =
	// 38ms. (No wall-clock bound: that measures the machine, not the cap.)
	h := reg.Histogram("mlaas_client_backoff_seconds", "endpoint", "platforms")
	if h.Count() != 6 {
		t.Fatalf("backoff observations = %d, want 6", h.Count())
	}
	if h.Sum() > 0.038+1e-9 {
		t.Fatalf("total backoff %.4fs exceeds the capped nominal 0.038s", h.Sum())
	}
}

func TestRequestIDConstantAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var ids []string
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ids = append(ids, r.Header.Get(telemetry.RequestIDHeader))
		mu.Unlock()
		if calls.Add(1) < 3 {
			http.Error(w, `{"error":"flaky"}`, http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode([]any{})
	}))
	defer srv.Close()
	c := New(srv.URL)
	c.Backoff = time.Millisecond
	if _, err := c.Platforms(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ids) != 3 {
		t.Fatalf("%d attempts recorded", len(ids))
	}
	if ids[0] == "" {
		t.Fatal("no X-Request-ID sent")
	}
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Fatalf("request id changed across retries: %v", ids)
	}
}

func TestRequestIDPropagatedFromContext(t *testing.T) {
	var got string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Get(telemetry.RequestIDHeader)
		_ = json.NewEncoder(w).Encode([]any{})
	}))
	defer srv.Close()
	c := New(srv.URL)
	ctx := telemetry.WithRequestID(context.Background(), "caller-chosen-id")
	if _, err := c.Platforms(ctx); err != nil {
		t.Fatal(err)
	}
	if got != "caller-chosen-id" {
		t.Fatalf("server saw request id %q, want the caller's", got)
	}
}

func TestRateLimiterGuardsNonPositiveRate(t *testing.T) {
	for _, rate := range []float64{0, -5} {
		rl := NewRateLimiter(rate, 2) // must not panic or spin
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		// The burst tokens are still available immediately.
		if err := rl.Wait(ctx); err != nil {
			t.Fatalf("rate %v: burst token unavailable: %v", rate, err)
		}
		cancel()
		rl.Stop()
	}
}

func TestRateLimitWaitRecorded(t *testing.T) {
	srv, _ := flakyServer(t, 0, http.StatusOK)
	reg := telemetry.NewRegistry()
	c := New(srv.URL)
	c.Telemetry = reg
	c.Limiter = NewRateLimiter(1000, 1)
	defer c.Limiter.Stop()
	for i := 0; i < 3; i++ {
		if _, err := c.Platforms(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Histogram("mlaas_client_ratelimit_wait_seconds", "endpoint", "platforms").Count(); got != 3 {
		t.Fatalf("rate-limit wait observations = %d, want 3", got)
	}
}
