package service_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"mlaasbench/internal/client"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/service"
	"mlaasbench/internal/telemetry"
)

// newServingServer spins a server with a private registry and the given
// model-cache bound.
func newServingServer(t *testing.T, cacheModels int) (*httptest.Server, *client.Client, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	s := service.NewServer(func(string, ...any) {}).WithRegistry(reg).WithModelCache(cacheModels)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, client.New(srv.URL), reg
}

func mustSameLabels(t *testing.T, ctx string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: label %d is %d, want %d", ctx, i, got[i], want[i])
		}
	}
}

// TestServingPathMatchesRefitPath is the HTTP-level equivalence check: the
// same upload/train/predict sequence against a fit-once server and a
// cache-disabled (retrain-per-request) server must produce identical labels,
// across a user platform, Amazon's hidden binning and a black box.
func TestServingPathMatchesRefitPath(t *testing.T) {
	sp := testSplit(t)
	ctx := context.Background()
	cases := []struct {
		platform string
		cfg      pipeline.Config
	}{
		{"local", pipeline.Config{Classifier: "randomforest", Params: map[string]any{"n_estimators": 5}}},
		{"amazon", pipeline.Config{Classifier: "logreg", Params: map[string]any{"max_iter": 20}}},
		{"google", pipeline.Config{}},
	}
	_, cached, cachedReg := newServingServer(t, service.DefaultModelCacheModels)
	_, refit, _ := newServingServer(t, 0)
	for _, tc := range cases {
		var labels [2][]int
		for i, c := range []*client.Client{cached, refit} {
			dsID, err := c.Upload(ctx, tc.platform, sp.Train)
			if err != nil {
				t.Fatal(err)
			}
			mID, err := c.Train(ctx, tc.platform, dsID, tc.cfg, 9)
			if err != nil {
				t.Fatal(err)
			}
			labels[i], err = c.Predict(ctx, tc.platform, mID, sp.Test.X)
			if err != nil {
				t.Fatal(err)
			}
		}
		mustSameLabels(t, tc.platform, labels[0], labels[1])
	}
	// The cached server must have served the predicts without refitting:
	// every train missed once, every predict hit the resident model.
	if h := cachedReg.Counter(telemetry.ModelCacheHits).Value(); h < int64(len(cases)) {
		t.Fatalf("cache hits %d, want ≥ %d (one per predict)", h, len(cases))
	}
}

// TestEvictedModelRefitsTransparently bounds the cache at one model, trains
// two, and checks that predicting with the evicted one still returns the
// exact labels — correctness never depends on cache state — while the
// eviction and the refit are visible in telemetry.
func TestEvictedModelRefitsTransparently(t *testing.T) {
	sp := testSplit(t)
	ctx := context.Background()
	_, c, reg := newServingServer(t, 1)

	dsID, err := c.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := pipeline.Config{Classifier: "logreg", Params: map[string]any{}}
	cfgB := pipeline.Config{Classifier: "dtree", Params: map[string]any{}}
	mA, err := c.Train(ctx, "local", dsID, cfgA, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := c.Predict(ctx, "local", mA, sp.Test.X) // A resident: forward pass
	if err != nil {
		t.Fatal(err)
	}
	mB, err := c.Train(ctx, "local", dsID, cfgB, 3) // evicts A
	if err != nil {
		t.Fatal(err)
	}
	if ev := reg.Counter(telemetry.ModelCacheEvictions).Value(); ev < 1 {
		t.Fatalf("evictions=%d after overflowing a 1-model cache", ev)
	}
	gotA, err := c.Predict(ctx, "local", mA, sp.Test.X) // transparent refit
	if err != nil {
		t.Fatal(err)
	}
	mustSameLabels(t, "evicted model", gotA, wantA)
	if _, err := c.Predict(ctx, "local", mB, sp.Test.X); err != nil {
		t.Fatal(err)
	}
	// The post-eviction predict must have taken the refit path.
	if n := reg.Histogram(telemetry.PredictPathHistogram, "path", "refit").Count(); n < 1 {
		t.Fatalf("refit-path observations %d, want ≥ 1", n)
	}
	if n := reg.Histogram(telemetry.PredictPathHistogram, "path", "forward").Count(); n < 1 {
		t.Fatalf("forward-path observations %d, want ≥ 1", n)
	}
}

// TestConcurrentPredictsWithTrainInFlight hammers one resident model with
// concurrent predicts while identical train requests are in flight — the
// singleflight + shared-model path the race detector must stay quiet on
// (this package is part of the `make race` set).
func TestConcurrentPredictsWithTrainInFlight(t *testing.T) {
	sp := testSplit(t)
	ctx := context.Background()
	_, c, reg := newServingServer(t, service.DefaultModelCacheModels)

	dsID, err := c.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.Config{Classifier: "mlp", Params: map[string]any{"max_iter": 40}}
	mID, err := c.Train(ctx, "local", dsID, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.Predict(ctx, "local", mID, sp.Test.X)
	if err != nil {
		t.Fatal(err)
	}

	const (
		trainers   = 4
		predictors = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, trainers+predictors)
	labels := make(chan []int, predictors)
	for i := 0; i < trainers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Identical description → identical model key → coalesces or
			// hits; never a second fit of a different artifact.
			if _, err := c.Train(ctx, "local", dsID, cfg, 5); err != nil {
				errs <- err
			}
		}()
	}
	for i := 0; i < predictors; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := c.Predict(ctx, "local", mID, sp.Test.X)
			if err != nil {
				errs <- err
				return
			}
			labels <- got
		}()
	}
	wg.Wait()
	close(errs)
	close(labels)
	for err := range errs {
		t.Fatal(err)
	}
	for got := range labels {
		mustSameLabels(t, "concurrent predict", got, want)
	}
	// Exactly one fit for this description across every train and predict.
	if mi := reg.Counter(telemetry.ModelCacheMisses).Value(); mi != 1 {
		t.Fatalf("misses=%d, want 1 (one fit total)", mi)
	}
}

// TestServingArmsAgree runs the closed-loop serving workload over codec
// {json, binary} × model cache {off, DefaultModelCacheModels}, each arm
// against its own server and registry: upload and train once, then two
// concurrent clients each send 20 predicts of a 32-row batch (test rows
// tiled to fill it). Every response in every arm must equal the first one;
// the cache-off arm must serve only refit-path predicts and the cached arm
// only forward-path ones; and client and server telemetry must land in the
// arm's registry, never in the process-wide default one.
func TestServingArmsAgree(t *testing.T) {
	const (
		clients   = 2
		perClient = 20
		batch     = 32
	)
	sp := testSplit(t)
	ctx := context.Background()
	cfg := pipeline.Config{Classifier: "logreg", Params: map[string]any{}}
	instances := make([][]float64, batch)
	for i := range instances {
		instances[i] = sp.Test.X[i%len(sp.Test.X)]
	}
	defaultBefore := telemetry.Default().Snapshot()

	var want []int
	for _, codec := range []client.Codec{client.CodecJSON, client.CodecBinary} {
		for _, cache := range []int{0, service.DefaultModelCacheModels} {
			arm := fmt.Sprintf("codec=%s cache=%d", codec, cache)
			srv, _, reg := newServingServer(t, cache)
			newClient := func() *client.Client {
				c := client.New(srv.URL).WithCodec(codec)
				c.Telemetry = reg
				return c
			}
			c := newClient()
			dsID, err := c.Upload(ctx, "local", sp.Train)
			if err != nil {
				t.Fatalf("%s: upload: %v", arm, err)
			}
			mID, err := c.Train(ctx, "local", dsID, cfg, 1)
			if err != nil {
				t.Fatalf("%s: train: %v", arm, err)
			}

			var wg sync.WaitGroup
			responses := make([][]int, clients*perClient)
			errs := make([]error, clients)
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					cl := newClient()
					for i := 0; i < perClient; i++ {
						labels, err := cl.Predict(ctx, "local", mID, instances)
						if err != nil {
							errs[w] = err
							return
						}
						responses[w*perClient+i] = labels
					}
				}(w)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatalf("%s: predict: %v", arm, err)
				}
			}
			if want == nil {
				want = responses[0]
			}
			for _, got := range responses {
				mustSameLabels(t, arm, got, want)
			}

			paths := map[string]uint64{}
			for _, path := range []string{"refit", "forward"} {
				paths[path] = reg.Histogram(telemetry.PredictPathHistogram, "path", path).Count()
			}
			wantPath := "forward"
			if cache == 0 {
				wantPath = "refit"
			}
			if paths[wantPath] != clients*perClient || paths["refit"]+paths["forward"] != clients*perClient {
				t.Errorf("%s: predict paths %v, want all %d on path=%q", arm, paths, clients*perClient, wantPath)
			}
			if n := reg.Counter("mlaas_client_requests_total", "endpoint", "predict").Value(); n != clients*perClient {
				t.Errorf("%s: arm registry saw %d client predicts, want %d", arm, n, clients*perClient)
			}
		}
	}
	if after := telemetry.Default().Snapshot(); !reflect.DeepEqual(after, defaultBefore) {
		t.Errorf("the default registry changed while every arm had its own:\nbefore %+v\nafter  %+v", defaultBefore, after)
	}
}
