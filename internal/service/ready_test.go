package service_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"mlaasbench/internal/client"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/service"
	"mlaasbench/internal/store"
	"mlaasbench/internal/telemetry"
)

func healthz(t *testing.T, url string) service.HealthResponse {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h service.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestColdBootReadinessFlip pins the readiness lifecycle a cluster
// router depends on: a server without a disk tier is born ready; one
// with a store dir is NOT ready until the boot warm scan completes, so
// the router keeps it out of rotation while it would still be refitting
// everything from scratch.
func TestColdBootReadinessFlip(t *testing.T) {
	plain := service.NewServer(func(string, ...any) {}).WithRegistry(telemetry.NewRegistry())
	plainSrv := httptest.NewServer(plain.Handler())
	defer plainSrv.Close()
	if h := healthz(t, plainSrv.URL); !h.Ready {
		t.Fatal("storeless server not born ready")
	}

	dir := t.TempDir()
	// Seed the store with one artifact so the warm scan has work to do.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	seed := service.NewServer(func(string, ...any) {}).WithRegistry(telemetry.NewRegistry()).WithStore(st)
	seedSrv := httptest.NewServer(seed.Handler())
	if _, err := seed.WarmFromStore(); err != nil {
		t.Fatal(err)
	}
	sp := testSplit(t)
	c := client.New(seedSrv.URL)
	dsID, err := c.Upload(context.Background(), "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Train(context.Background(), "local", dsID, pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, 7); err != nil {
		t.Fatal(err)
	}
	seedSrv.Close()

	// Cold boot over the same artifacts: alive immediately, ready only
	// after the warm scan.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold := service.NewServer(func(string, ...any) {}).WithRegistry(telemetry.NewRegistry()).WithStore(st2)
	coldSrv := httptest.NewServer(cold.Handler())
	defer coldSrv.Close()
	if h := healthz(t, coldSrv.URL); h.Ready {
		t.Fatal("cold-booting server claimed ready before its warm scan")
	}
	if cold.Ready() {
		t.Fatal("Ready() true before warm")
	}
	n, err := cold.WarmFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("warmed %d models, want 1", n)
	}
	if h := healthz(t, coldSrv.URL); !h.Ready {
		t.Fatal("server still not ready after warm scan completed")
	}
}
