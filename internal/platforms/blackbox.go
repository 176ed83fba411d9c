package platforms

import (
	"context"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/rng"
)

// blackBox implements the shared behaviour of the two fully automated
// "1-click" platforms, ABM and Google: no user-visible controls, and a
// hidden server-side choice between a linear and a non-linear classifier
// driven by an internal validation probe. §6.1 demonstrates exactly this
// behaviour from the outside (Figure 10), and §6.3 shows the choice is
// *imperfect* — which the probe reproduces naturally, because it judges
// from a small internal validation split.
type blackBox struct {
	name       string
	complexity int
	// linearName and nonLinearName select the two candidate families.
	// Google's non-linear boundary looks kernel-smooth (Figure 10a), so it
	// uses a distance-weighted kNN; ABM's looks axis-aligned (Figure 10c),
	// so it uses a decision tree.
	linearName    string
	nonLinearName string
	// bias is the F1 advantage the non-linear candidate must show on the
	// internal validation split before the platform switches away from the
	// linear default. A small positive bias mirrors the paper's finding
	// that the black boxes lean linear (Google 60.9%, ABM 68.8% linear).
	bias float64
}

// Name implements Platform.
func (b *blackBox) Name() string { return b.name }

// Complexity implements Platform.
func (b *blackBox) Complexity() int { return b.complexity }

// Surface implements Platform: black boxes expose nothing.
func (b *blackBox) Surface() pipeline.Surface { return pipeline.Surface{} }

// BaselineClassifier implements Platform: the baseline *is* the automatic
// pipeline.
func (b *blackBox) BaselineClassifier() string { return "" }

// choose runs the hidden model-selection probe: split the uploaded training
// data internally, train both candidates, keep the one that wins on the
// internal validation fold (with the linear default retained unless the
// non-linear candidate clearly wins). The probe's internal fits land in
// ctx's trace.
func (b *blackBox) choose(ctx context.Context, train *dataset.Dataset, r *rng.RNG) pipeline.Config {
	linearCfg := b.candidate(b.linearName)
	nonLinearCfg := b.candidate(b.nonLinearName)
	sp := train.StratifiedSplit(0.7, r.Split("probe-split"))
	linRes, errLin := pipeline.Run(ctx, linearCfg, sp.Train, sp.Test, r.Split("probe-lin"), nil)
	nonRes, errNon := pipeline.Run(ctx, nonLinearCfg, sp.Train, sp.Test, r.Split("probe-non"), nil)
	switch {
	case errLin != nil && errNon != nil:
		return linearCfg
	case errLin != nil:
		return nonLinearCfg
	case errNon != nil:
		return linearCfg
	}
	if nonRes.Scores.F1 > linRes.Scores.F1+b.bias {
		return nonLinearCfg
	}
	return linearCfg
}

func (b *blackBox) candidate(name string) pipeline.Config {
	params, err := classifiers.DefaultParams(name)
	if err != nil {
		panic(err) // candidate names are fixed at construction
	}
	return pipeline.Config{Feat: pipeline.Feat{Kind: "none"}, Classifier: name, Params: params}
}

// RunCtx implements Platform. The user config is ignored: the service
// accepts only the dataset, like the real 1-click APIs. The hidden probe
// fits on a seed-dependent internal split, so only the final fit on the
// full training set uses the cache.
func (b *blackBox) RunCtx(ctx context.Context, _ pipeline.Config, train, test *dataset.Dataset, seed uint64, cache *pipeline.FeatCache) (pipeline.Result, error) {
	r := runRNG(b.name, train.Name, seed)
	cfg := b.choose(ctx, train, r.Split("choose"))
	res, err := pipeline.Run(ctx, cfg, train, test, r.Split("final"), cache)
	if err != nil {
		return pipeline.Result{}, err
	}
	// Hide the internal choice the way the services do: the reported
	// config names only the platform's automatic mode. §6.2 has to infer
	// the family from predictions, and so do our analyses.
	res.Config = pipeline.Config{Classifier: "auto", Params: classifiers.Params{}}
	return res, err
}

// Run implements Platform.
func (b *blackBox) Run(cfg pipeline.Config, train, test *dataset.Dataset, seed uint64) (pipeline.Result, error) {
	return b.RunCtx(context.Background(), cfg, train, test, seed, nil)
}

// FitCtx implements Platform: run the hidden selection probe once, train
// the chosen candidate once, and keep the result resident. The RNG stream
// is exactly the one RunCtx consumes ("choose" then "final"), so the fitted
// model — including which family the probe picked — predicts the test rows
// byte-identically to RunCtx. As in RunCtx, only the final fit uses the
// cache.
func (b *blackBox) FitCtx(ctx context.Context, _ pipeline.Config, train *dataset.Dataset, seed uint64, cache *pipeline.FeatCache) (FittedModel, error) {
	r := runRNG(b.name, train.Name, seed)
	cfg := b.choose(ctx, train, r.Split("choose"))
	return pipeline.Fit(ctx, cfg, train, r.Split("final"), cache)
}

// Fit implements Platform.
func (b *blackBox) Fit(cfg pipeline.Config, train *dataset.Dataset, seed uint64) (FittedModel, error) {
	return b.FitCtx(context.Background(), cfg, train, seed, nil)
}

// ChosenFamily exposes whether the hidden probe picks the non-linear
// candidate for a dataset. It exists for white-box validation of the §6.2
// inference methodology in tests and ablations — the measurement analyses
// never call it.
func (b *blackBox) ChosenFamily(train *dataset.Dataset, seed uint64) (nonLinear bool) {
	r := runRNG(b.name, train.Name, seed)
	cfg := b.choose(context.Background(), train, r.Split("choose"))
	return cfg.Classifier == b.nonLinearName
}

// Google simulates the Google Prediction API: fully automated, no controls,
// internally switching between a linear model and a smooth non-linear model
// (its CIRCLE boundary is round — kernel-like, Figure 10a).
type Google struct {
	blackBox
}

func newGoogle() *Google {
	return &Google{blackBox{
		name:          "google",
		complexity:    0,
		linearName:    "logreg",
		nonLinearName: "knn",
		bias:          0.02,
	}}
}

// ABM simulates Automatic Business Modeler: fully automated, no controls,
// internally switching between a linear model and a tree model (its CIRCLE
// boundary is rectangular, Figure 10c). ABM leans linear harder than Google
// (68.8% vs 60.9% of datasets, §6.2), expressed as a larger switch bias.
type ABM struct {
	blackBox
}

func newABM() *ABM {
	return &ABM{blackBox{
		name:          "abm",
		complexity:    1,
		linearName:    "logreg",
		nonLinearName: "dtree",
		bias:          0.05,
	}}
}
