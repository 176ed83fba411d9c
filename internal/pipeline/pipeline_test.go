package pipeline

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

func testSplit(t *testing.T) dataset.Split {
	t.Helper()
	ds := synth.GenerateClean(synth.Spec{Name: "p", Gen: synth.GenLinear, N: 150, D: 4, Noise: 0.2}, synth.Quick, 1)
	return ds.StratifiedSplit(0.7, rng.New(2))
}

func smallSurface() Surface {
	return Surface{
		Feats: []Feat{
			{Kind: "scaler", Name: "standard"},
			{Kind: "filter", Name: "pearson"},
		},
		Classifiers: []ClassifierSurface{
			{Name: "logreg", Params: SpecsFor("logreg", "penalty", "C")},
			{Name: "dtree", Params: SpecsFor("dtree", "criterion")},
		},
	}
}

func TestRunProducesScores(t *testing.T) {
	sp := testSplit(t)
	cfg := Config{Feat: Feat{Kind: "none"}, Classifier: "logreg", Params: classifiers.Params{}}
	res, err := Run(context.Background(), cfg, sp.Train, sp.Test, rng.New(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores.F1 < 0.7 {
		t.Fatalf("F1 %.3f on easy linear data", res.Scores.F1)
	}
	if res.Scores.Accuracy <= 0 || res.Scores.Accuracy > 1 {
		t.Fatalf("accuracy %v", res.Scores.Accuracy)
	}
}

func TestRunAllFeatKinds(t *testing.T) {
	sp := testSplit(t)
	feats := []Feat{
		{Kind: "none"},
		{Kind: "scaler", Name: "standard"},
		{Kind: "scaler", Name: "minmax"},
		{Kind: "filter", Name: "fisher"},
		{Kind: "fisherlda"},
	}
	for _, f := range feats {
		cfg := Config{Feat: f, Classifier: "logreg", Params: classifiers.Params{}}
		res, err := Run(context.Background(), cfg, sp.Train, sp.Test, rng.New(4), nil)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if res.Scores.F1 == 0 {
			t.Fatalf("%s: zero F1 on separable data", f)
		}
	}
}

func TestRunUnknownClassifier(t *testing.T) {
	sp := testSplit(t)
	cfg := Config{Classifier: "nope"}
	if _, err := Run(context.Background(), cfg, sp.Train, sp.Test, rng.New(1), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunUnknownFeat(t *testing.T) {
	sp := testSplit(t)
	cfg := Config{Feat: Feat{Kind: "wavelet"}, Classifier: "logreg"}
	if _, err := Run(context.Background(), cfg, sp.Train, sp.Test, rng.New(1), nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestRunDeterministic(t *testing.T) {
	sp := testSplit(t)
	cfg := Config{Classifier: "randomforest", Params: classifiers.Params{"n_estimators": 5}}
	a, err := Run(context.Background(), cfg, sp.Train, sp.Test, rng.New(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Run(context.Background(), cfg, sp.Train, sp.Test, rng.New(7), nil)
	if a.Scores != b.Scores {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Scores, b.Scores)
	}
}

func TestFitPredictsMeshGrid(t *testing.T) {
	sp := testSplit(t)
	pts := sp.Train.MeshGrid(10, 0.5)
	cfg := Config{Classifier: "dtree"}
	fp, err := Fit(context.Background(), cfg, sp.Train, rng.New(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	labels := fp.Predict(pts)
	if len(labels) != 100 {
		t.Fatalf("%d labels for 100 points", len(labels))
	}
	// Mesh over a dataset's own bounding box must see both classes for a
	// reasonable classifier on separable data.
	sum := 0
	for _, l := range labels {
		sum += l
	}
	if sum == 0 || sum == len(labels) {
		t.Fatalf("mesh predicted a single class everywhere (%d/%d)", sum, len(labels))
	}
}

func TestFeatStringRoundTrip(t *testing.T) {
	for _, f := range []Feat{
		{Kind: "none"},
		{Kind: "scaler", Name: "standard"},
		{Kind: "filter", Name: "chi"},
		{Kind: "fisherlda"},
	} {
		got, err := ParseFeat(f.String())
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if got.String() != f.String() {
			t.Fatalf("round trip %v → %v", f, got)
		}
	}
	if _, err := ParseFeat("bogus:x"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := ParseFeat("scaler:"); err == nil {
		t.Fatal("expected parse error for empty name")
	}
}

func TestConfigStringStable(t *testing.T) {
	c := Config{
		Feat:       Feat{Kind: "scaler", Name: "standard"},
		Classifier: "logreg",
		Params:     classifiers.Params{"C": 1.0, "penalty": "l2"},
	}
	s1 := c.String()
	s2 := c.String()
	if s1 != s2 {
		t.Fatal("unstable config string")
	}
	if !strings.Contains(s1, "logreg") || !strings.Contains(s1, "C=1") {
		t.Fatalf("config string %q", s1)
	}
}

func TestParamGridOneAtATime(t *testing.T) {
	cs := ClassifierSurface{Name: "logreg", Params: SpecsFor("logreg", "penalty", "C")}
	grid := ParamGrid(cs)
	// Defaults + penalty:l1 + C:{0.01, 100} = 4 distinct assignments
	// (penalty:l2 and C:1 dedup against the defaults).
	if len(grid) != 4 {
		t.Fatalf("grid size %d, want 4: %v", len(grid), grid)
	}
	first := grid[0]
	if first.String("penalty", "") != "l2" || first.Float("C", 0) != 1 {
		t.Fatalf("first grid entry %v is not the defaults", first)
	}
	// Every non-default entry deviates from the defaults in exactly one
	// parameter (the one-at-a-time scan).
	for _, p := range grid[1:] {
		devs := 0
		if p.String("penalty", "") != "l2" {
			devs++
		}
		if p.Float("C", 0) != 1 {
			devs++
		}
		if devs != 1 {
			t.Fatalf("entry %v deviates in %d params, want 1", p, devs)
		}
	}
	// All entries distinct.
	seen := map[string]bool{}
	for _, p := range grid {
		k := paramsKey(p)
		if seen[k] {
			t.Fatalf("duplicate grid entry %v", p)
		}
		seen[k] = true
	}
}

func TestParamGridFullProduct(t *testing.T) {
	cs := ClassifierSurface{Name: "logreg", Params: SpecsFor("logreg", "penalty", "C")}
	grid := ParamGridFull(cs)
	// penalty: 2 options × C: 3 values = 6 combos.
	if len(grid) != 6 {
		t.Fatalf("full grid size %d, want 6", len(grid))
	}
	if len(ParamGridFull(ClassifierSurface{Name: "naivebayes"})) != 1 {
		t.Fatal("no-param full grid")
	}
}

func TestParamGridNoParams(t *testing.T) {
	cs := ClassifierSurface{Name: "naivebayes"}
	grid := ParamGrid(cs)
	if len(grid) != 1 || len(grid[0]) != 0 {
		t.Fatalf("no-param grid %v", grid)
	}
}

func TestEnumerateCounts(t *testing.T) {
	s := smallSurface()
	configs := Enumerate(s)
	// FEAT: none + 2 = 3. logreg grid: 4, dtree grid: 2 → 6 per FEAT → 18.
	if len(configs) != 18 {
		t.Fatalf("enumerated %d configs, want 18", len(configs))
	}
	// All distinct.
	seen := map[string]bool{}
	for _, c := range configs {
		if seen[c.String()] {
			t.Fatalf("duplicate config %s", c)
		}
		seen[c.String()] = true
	}
}

func TestEnumerateDimension(t *testing.T) {
	s := smallSurface()
	feat, err := EnumerateDimension(s, "feat", "logreg")
	if err != nil {
		t.Fatal(err)
	}
	if len(feat) != 3 {
		t.Fatalf("feat dimension %d configs, want 3", len(feat))
	}
	for _, c := range feat {
		if c.Classifier != "logreg" {
			t.Fatal("feat dimension must hold classifier at baseline")
		}
	}
	clf, err := EnumerateDimension(s, "clf", "logreg")
	if err != nil {
		t.Fatal(err)
	}
	if len(clf) != 2 {
		t.Fatalf("clf dimension %d configs, want 2", len(clf))
	}
	for _, c := range clf {
		if c.Feat.Kind != "none" {
			t.Fatal("clf dimension must hold FEAT at baseline")
		}
	}
	para, err := EnumerateDimension(s, "para", "logreg")
	if err != nil {
		t.Fatal(err)
	}
	if len(para) != 4 {
		t.Fatalf("para dimension %d configs, want 4", len(para))
	}
	if _, err := EnumerateDimension(s, "bogus", "logreg"); err == nil {
		t.Fatal("expected error for unknown dimension")
	}
}

func TestDefaultConfig(t *testing.T) {
	s := smallSurface()
	cfg, err := s.DefaultConfig("logreg")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Feat.Kind != "none" {
		t.Fatal("baseline must use no FEAT")
	}
	if cfg.Params.String("penalty", "") != "l2" {
		t.Fatalf("baseline params %v", cfg.Params)
	}
	if _, err := s.DefaultConfig("mlp"); err == nil {
		t.Fatal("expected error for classifier not on surface")
	}
}

func TestSpecsForPanicsOnTypo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SpecsFor("logreg", "no_such_param")
}

// Property: every config of the richest surfaces runs to completion on a
// random-but-valid dataset, with well-formed scores. This is the "no
// configuration can crash the service" guarantee the HTTP layer relies on.
func TestQuickAnySurfaceConfigRuns(t *testing.T) {
	ds := synth.GenerateClean(synth.Spec{Name: "anyconf", Gen: synth.GenMoons, N: 70, D: 3, Noise: 0.3}, synth.Quick, 13)
	sp := ds.StratifiedSplit(0.7, rng.New(14))
	surface := smallSurface()
	configs := Enumerate(surface)
	f := func(pick uint16, seed uint64) bool {
		cfg := configs[int(pick)%len(configs)]
		res, err := Run(context.Background(), cfg, sp.Train, sp.Test, rng.New(seed), nil)
		if err != nil {
			return false
		}
		s := res.Scores
		return s.F1 >= 0 && s.F1 <= 1 && s.Accuracy >= 0 && s.Accuracy <= 1 &&
			s.Precision >= 0 && s.Precision <= 1 && s.Recall >= 0 && s.Recall <= 1 &&
			len(res.Pred) == sp.Test.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterReducesDimensions(t *testing.T) {
	ds := synth.GenerateClean(synth.Spec{Name: "wide", Gen: synth.GenLinear, N: 100, D: 10, Noise: 0.2}, synth.Quick, 9)
	sp := ds.StratifiedSplit(0.7, rng.New(2))
	xTr, xTe, err := applyFeat(context.Background(), Feat{Kind: "filter", Name: "fisher"}, sp.Train, sp.Test)
	if err != nil {
		t.Fatal(err)
	}
	want := int(FilterKeepFraction * float64(sp.Train.D()))
	if len(xTr[0]) != want || len(xTe[0]) != want {
		t.Fatalf("filter kept %d features, want %d", len(xTr[0]), want)
	}
}
