package service_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"mlaasbench/internal/client"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/service"
	"mlaasbench/internal/store"
	"mlaasbench/internal/telemetry"
)

// TestWarmRestartServesFirstPredictWithoutRefit is the end-to-end restart
// contract: a server with a store dir fits models and persists artifacts; a
// fresh server process over the same dir warms its cache at boot and serves
// the same upload→train→predict sequence with zero model fits — the train
// is a cache hit on the warmed key and the predictions are byte-identical.
func TestWarmRestartServesFirstPredictWithoutRefit(t *testing.T) {
	sp := testSplit(t)
	ctx := context.Background()
	dir := t.TempDir()
	cases := []struct {
		platform string
		cfg      pipeline.Config
	}{
		{"local", pipeline.Config{Classifier: "randomforest", Params: map[string]any{"n_estimators": 5}}},
		{"amazon", pipeline.Config{Classifier: "logreg", Params: map[string]any{"max_iter": 20}}},
		{"google", pipeline.Config{}},
	}

	run := func(s *service.Server) map[string][]int {
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		c := client.New(srv.URL)
		labels := map[string][]int{}
		for _, tc := range cases {
			dsID, err := c.Upload(ctx, tc.platform, sp.Train)
			if err != nil {
				t.Fatal(err)
			}
			mID, err := c.Train(ctx, tc.platform, dsID, tc.cfg, 9)
			if err != nil {
				t.Fatal(err)
			}
			labels[tc.platform], err = c.Predict(ctx, tc.platform, mID, sp.Test.X)
			if err != nil {
				t.Fatal(err)
			}
		}
		return labels
	}

	// Cold process: every train fits, every fit persists an artifact.
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	coldReg := telemetry.NewRegistry()
	cold := service.NewServer(func(string, ...any) {}).WithRegistry(coldReg).WithStore(st1)
	want := run(cold)
	if n := coldReg.Counter(telemetry.ModelCacheMisses).Value(); n != int64(len(cases)) {
		t.Fatalf("cold server: %d fits, want %d", n, len(cases))
	}
	if n, err := st1.Len(); err != nil || n != len(cases) {
		t.Fatalf("store holds %d artifacts (%v), want %d", n, err, len(cases))
	}

	// Warm restart: a brand-new server over the same store dir. The same
	// client sequence re-issues the uploads (the same bytes hash to the same
	// dataset ids, so the model keys are identical) and the trains hit the
	// warmed cache.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmReg := telemetry.NewRegistry()
	warm := service.NewServer(func(string, ...any) {}).WithRegistry(warmReg).WithStore(st2)
	n, err := warm.WarmFromStore()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(cases) {
		t.Fatalf("warmed %d models, want %d", n, len(cases))
	}
	got := run(warm)

	if misses := warmReg.Counter(telemetry.ModelCacheMisses).Value(); misses != 0 {
		t.Fatalf("warm server ran %d fits, want 0 (model-cache miss count must be zero for warmed keys)", misses)
	}
	if hits := warmReg.Counter(telemetry.ModelCacheHits).Value(); hits < int64(2*len(cases)) {
		t.Fatalf("warm server cache hits %d, want ≥ %d (train + predict per case)", hits, 2*len(cases))
	}
	for _, tc := range cases {
		mustSameLabels(t, "warm restart "+tc.platform, got[tc.platform], want[tc.platform])
	}
}
