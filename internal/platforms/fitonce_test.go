package platforms

import (
	"context"
	"math"
	"sync"
	"testing"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/preprocess"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

// fitOnceDatasets returns one linear and one non-linear training set, so the
// black boxes' hidden probe is exercised on both sides of its decision.
func fitOnceDatasets() []*dataset.Dataset {
	lin := synth.GenerateClean(synth.Spec{Name: "fitonce-lin", Gen: synth.GenLinear, N: 90, D: 4, Noise: 0.2}, synth.Quick, 11)
	circ := synth.GenerateClean(synth.CircleSpec(), synth.Quick, 11)
	return []*dataset.Dataset{lin, circ}
}

// assertSameLabels fails unless the two label slices are identical.
func assertSameLabels(t *testing.T, ctx string, got, want []int) {
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

// TestFitOnceMatchesRefitEveryPlatform is the serving-path equivalence
// proof: for every platform — including the black boxes' hidden probe and
// Amazon's hidden binning — Fit followed by Predict on the test rows yields
// labels byte-identical to Run's Pred, the sweep's own retrain-per-call
// path, and a resident model answers repeated queries identically (no
// hidden state).
func TestFitOnceMatchesRefitEveryPlatform(t *testing.T) {
	for _, ds := range fitOnceDatasets() {
		sp := ds.StratifiedSplit(0.7, rng.New(3))
		ds, points := sp.Train, sp.Test.X
		for _, p := range All() {
			var cfg pipeline.Config
			if base := p.BaselineClassifier(); base != "" {
				var err error
				cfg, err = p.Surface().DefaultConfig(base)
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, seed := range []uint64{1, 42} {
				ctx := p.Name() + "/" + ds.Name
				m, err := p.Fit(cfg, ds, seed)
				if err != nil {
					t.Fatalf("%s: Fit: %v", ctx, err)
				}
				want, err := p.Run(cfg, ds, sp.Test, seed)
				if err != nil {
					t.Fatalf("%s: Run: %v", ctx, err)
				}
				assertSameLabels(t, ctx, m.Predict(points), want.Pred)
				// A fitted model is a pure function of its training: a second
				// forward pass must not drift.
				assertSameLabels(t, ctx+" (reuse)", m.Predict(points), want.Pred)
			}
		}
	}
}

// TestFitOnceMatchesRefitNonDefaultConfigs walks the heavier corners the
// serving path leans on: ensembles, the MLP, and FEAT transforms that carry
// fitted state (scaler moments, filter column choice, the LDA projection).
func TestFitOnceMatchesRefitNonDefaultConfigs(t *testing.T) {
	full := synth.GenerateClean(synth.Spec{Name: "fitonce-cfg", Gen: synth.GenClusters, N: 100, D: 6, Noise: 0.3}, synth.Quick, 5)
	sp := full.StratifiedSplit(0.7, rng.New(3))
	ds, points := sp.Train, sp.Test.X
	cases := []struct {
		platform   string
		feat       pipeline.Feat
		classifier string
		params     map[string]any
	}{
		{"local", pipeline.Feat{Kind: "scaler", Name: "standard"}, "mlp", map[string]any{"max_iter": 50}},
		{"local", pipeline.Feat{Kind: "filter", Name: "fisher"}, "randomforest", map[string]any{"n_estimators": 5}},
		{"microsoft", pipeline.Feat{Kind: "fisherlda"}, "boosted", map[string]any{"n_estimators": 10}},
		{"amazon", pipeline.Feat{Kind: "none"}, "logreg", map[string]any{"max_iter": 20}},
		{"bigml", pipeline.Feat{Kind: "none"}, "bagging", map[string]any{"n_estimators": 4}},
		{"predictionio", pipeline.Feat{Kind: "none"}, "naivebayes", nil},
	}
	for _, tc := range cases {
		p, err := New(tc.platform)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := p.Surface().DefaultConfig(tc.classifier)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Feat = tc.feat
		for k, v := range tc.params {
			cfg.Params[k] = v
		}
		ctx := tc.platform + "/" + cfg.String()
		m, err := p.Fit(cfg, ds, 7)
		if err != nil {
			t.Fatalf("%s: Fit: %v", ctx, err)
		}
		want, err := p.Run(cfg, ds, sp.Test, 7)
		if err != nil {
			t.Fatalf("%s: Run: %v", ctx, err)
		}
		assertSameLabels(t, ctx, m.Predict(points), want.Pred)
	}
}

// TestFitValidatesSurface mirrors Run: a classifier outside
// the platform's surface is rejected at fit time.
func TestFitValidatesSurface(t *testing.T) {
	ds := fitOnceDatasets()[0]
	p, err := New("amazon")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fit(pipeline.Config{Classifier: "randomforest"}, ds, 1); err == nil {
		t.Fatal("amazon must reject classifiers outside its surface at Fit")
	}
}

// TestBinnedPredictMatchesOracle: Amazon's resident model, which expands
// its one-hot rows into a pooled scratch, labels what its pipeline labels
// on the owned-copy binning, leaves its input bit-for-bit unchanged, and
// keeps both true when four clients predict at once through four shards
// each (the race detector runs this package in full).
func TestBinnedPredictMatchesOracle(t *testing.T) {
	ds := synth.GenerateClean(synth.CircleSpec(), synth.Quick, 11)
	sp := ds.StratifiedSplit(0.7, rng.New(3))
	var points [][]float64
	for len(points) < 256 {
		points = append(points, sp.Test.X...)
	}
	before := preprocess.Transform(&preprocess.Identity{}, points)
	untouched := func(what string) {
		t.Helper()
		for i, row := range points {
			for j, v := range row {
				if math.Float64bits(v) != math.Float64bits(before[i][j]) {
					t.Fatalf("%s modified input [%d][%d]", what, i, j)
				}
			}
		}
	}
	a := newAmazon()
	cfg, err := a.Surface().DefaultConfig(a.BaselineClassifier())
	if err != nil {
		t.Fatal(err)
	}
	fm, err := a.Fit(cfg, sp.Train, 42)
	if err != nil {
		t.Fatal(err)
	}
	m := fm.(*binnedModel)
	want := m.fp.Predict(preprocess.Transform(m.q, points))
	untouched("Transform")
	assertSameLabels(t, "PredictCtx", m.PredictCtx(context.Background(), points), want)
	untouched("PredictCtx")
	var wg sync.WaitGroup
	got := make([][]int, 4)
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[c] = pipeline.PredictSharded(m.Predict, points, 4)
		}()
	}
	wg.Wait()
	for _, labels := range got {
		assertSameLabels(t, "PredictSharded", labels, want)
	}
	untouched("PredictSharded")
}
