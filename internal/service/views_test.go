package service_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/telemetry"
)

var scalerStandard = pipeline.Feat{Kind: "scaler", Name: "standard"}

// featFits returns how many times the server fitted and reused a scaler
// FEAT transform.
func featFits(reg *telemetry.Registry) (misses, hits int64) {
	return reg.SumCounters(telemetry.FeatCacheMisses, "kind", "scaler"), reg.SumCounters(telemetry.FeatCacheHits, "kind", "scaler")
}

// Every tree learner trained on one upload, over several seeds and from
// concurrent clients, shares the upload's memoized presort and FEAT
// transform and still predicts exactly what a storeless, uncached
// in-process fit predicts.
func TestTrainsOnOneUploadMatchOracle(t *testing.T) {
	sp := testSplit(t)
	_, c, reg := newServingServer(t, 64)
	ctx := context.Background()
	dsID, err := c.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	type train struct {
		clf  string
		feat pipeline.Feat
		seed uint64
	}
	var trains []train
	for _, clf := range []string{"dtree", "randomforest", "bagging", "boosted"} {
		for seed := uint64(1); seed <= 3; seed++ {
			trains = append(trains, train{clf, pipeline.Feat{Kind: "none"}, seed})
		}
	}
	trains = append(trains, train{"dtree", scalerStandard, 1}, train{"randomforest", scalerStandard, 2})

	got := make([][]int, len(trains))
	var wg sync.WaitGroup
	for i, tr := range trains {
		wg.Add(1)
		go func(i int, tr train) {
			defer wg.Done()
			mID, err := c.Train(ctx, "local", dsID, pipeline.Config{Feat: tr.feat, Classifier: tr.clf}, tr.seed)
			if err != nil {
				t.Errorf("%v: %v", tr, err)
				return
			}
			if got[i], err = c.Predict(ctx, "local", mID, sp.Test.X); err != nil {
				t.Errorf("%v: %v", tr, err)
			}
		}(i, tr)
	}
	wg.Wait()

	local, err := platforms.New("local")
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range trains {
		cfg, err := local.Surface().DefaultConfig(tr.clf)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Feat = tr.feat
		oracle, err := local.Fit(cfg, sp.Train, tr.seed)
		if err != nil {
			t.Fatal(err)
		}
		mustSameLabels(t, fmt.Sprintf("%s+%s seed %d", tr.clf, tr.feat, tr.seed), got[i], oracle.Predict(sp.Test.X))
	}
	if m, h := featFits(reg); m != 1 || h != 1 {
		t.Fatalf("scaler transform fitted %d times and reused %d, want 1 and 1", m, h)
	}
}

// Re-uploading the same bytes keeps the dataset's entry, so its memoized
// views survive: the second train after a re-upload reuses the transform
// the first one fitted.
func TestReuploadKeepsDatasetViews(t *testing.T) {
	sp := testSplit(t)
	_, c, reg := newServingServer(t, 64)
	ctx := context.Background()
	cfg := pipeline.Config{Feat: scalerStandard, Classifier: "dtree"}
	for seed := uint64(1); seed <= 2; seed++ {
		dsID, err := c.Upload(ctx, "local", sp.Train)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Train(ctx, "local", dsID, cfg, seed); err != nil {
			t.Fatal(err)
		}
	}
	if m, h := featFits(reg); m != 1 || h != 1 {
		t.Fatalf("scaler transform fitted %d times and reused %d across a re-upload, want 1 and 1", m, h)
	}
}
