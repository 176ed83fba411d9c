// Package platforms simulates the six MLaaS services the paper measures —
// ABM, Google Prediction API, Amazon Machine Learning, PredictionIO, BigML
// and Microsoft Azure ML Studio — plus the "local" scikit-learn arm. The
// real services are proprietary (and mostly discontinued); what the paper
// actually characterizes is each platform's *control surface* (Figure 1,
// Table 1) and the behaviour of the hidden server-side pipeline. Each
// simulated platform therefore:
//
//   - exposes exactly the documented FEAT/CLF/PARA controls as a
//     pipeline.Surface, with the provider's defaults;
//   - executes the shared classifier substrate for everything user-visible;
//   - implements the provider's *hidden* behaviour: ABM and Google pick a
//     classifier family per dataset with an internal validation probe
//     (§6.1-6.2), and Amazon silently quantile-bins features before its
//     Logistic Regression, which is how its CIRCLE boundary turns
//     non-linear (Figure 13).
//
// Platform order by complexity matches Figure 2/4: Google < ABM < Amazon <
// BigML < PredictionIO < Microsoft < Local.
package platforms

import (
	"context"
	"fmt"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/rng"
)

// Platform is one MLaaS service (or the local library) under measurement.
type Platform interface {
	// Name is the platform identifier ("google", "abm", ...).
	Name() string
	// Complexity orders platforms by user control, ascending (Figure 2).
	Complexity() int
	// Surface returns the user-visible control surface. Black-box
	// platforms return an empty surface.
	Surface() pipeline.Surface
	// BaselineClassifier is the classifier used for the zero-control
	// baseline ("logreg" wherever the control exists; "" for black boxes,
	// whose baseline is their automatic pipeline).
	BaselineClassifier() string
	// RunCtx trains and evaluates one configuration on the split. Black-box
	// platforms ignore cfg (they accept only the data, like the real
	// 1-click services). A non-nil cache shares fitted FEAT transforms and
	// hidden per-split preprocessing across the configurations measured on
	// one split; it only removes redundant fitting, never changes what is
	// fitted, so the result is identical with a nil cache. ctx routes
	// pipeline stage timings into the caller's trace and registry, never
	// randomness.
	RunCtx(ctx context.Context, cfg pipeline.Config, train, test *dataset.Dataset, seed uint64, cache *pipeline.FeatCache) (pipeline.Result, error)
	// Run is RunCtx with a background context and no cache.
	Run(cfg pipeline.Config, train, test *dataset.Dataset, seed uint64) (pipeline.Result, error)
	// FitCtx trains one configuration and returns a reusable fitted model.
	// The artifact bundles everything the platform's pipeline learned —
	// fitted scaler/filter/LDA, trained classifier, hidden preprocessing
	// (Amazon's binner) and the black boxes' resolved candidate choice.
	// It trains under the same RNG stream as RunCtx with the same seed, so
	// its Predict on the test rows is byte-identical to RunCtx's Pred.
	FitCtx(ctx context.Context, cfg pipeline.Config, train *dataset.Dataset, seed uint64) (FittedModel, error)
	// Fit is FitCtx with a background context.
	Fit(cfg pipeline.Config, train *dataset.Dataset, seed uint64) (FittedModel, error)
}

// FittedModel is a trained, reusable predictor — the artifact a real
// serving system keeps resident after training (cf. TensorFlow-Serving's
// loaded servable, Clipper's model container) so prediction is a pure
// lookup + forward pass. PredictCtx takes points in the uploaded dataset's
// original feature space, records its per-stage timings
// (preprocess/featsel/predict) as spans in ctx's trace, and is safe for
// concurrent use: nothing in the fitted pipeline mutates after Fit.
type FittedModel interface {
	PredictCtx(ctx context.Context, points [][]float64) []int
	// Predict is PredictCtx with a background context.
	Predict(points [][]float64) []int
}

// Names lists the platforms in complexity order (Figure 4's x-axis).
func Names() []string {
	return []string{"google", "abm", "amazon", "bigml", "predictionio", "microsoft", "local"}
}

// New constructs a platform by name.
func New(name string) (Platform, error) {
	switch name {
	case "google":
		return newGoogle(), nil
	case "abm":
		return newABM(), nil
	case "amazon":
		return newAmazon(), nil
	case "bigml":
		return newBigML(), nil
	case "predictionio":
		return newPredictionIO(), nil
	case "microsoft":
		return newMicrosoft(), nil
	case "local":
		return newLocal(), nil
	default:
		return nil, fmt.Errorf("platforms: unknown platform %q", name)
	}
}

// All returns every platform in complexity order.
func All() []Platform {
	out := make([]Platform, 0, len(Names()))
	for _, n := range Names() {
		p, err := New(n)
		if err != nil {
			panic(err) // Names and New are defined together; a mismatch is a bug
		}
		out = append(out, p)
	}
	return out
}

// userPlatform implements the shared behaviour of every platform with a
// user-visible surface: Run validates the config against the surface and
// executes the standard pipeline.
type userPlatform struct {
	name       string
	complexity int
	surface    pipeline.Surface
}

func (u *userPlatform) Name() string               { return u.name }
func (u *userPlatform) Complexity() int            { return u.complexity }
func (u *userPlatform) Surface() pipeline.Surface  { return u.surface }
func (u *userPlatform) BaselineClassifier() string { return "logreg" }

func (u *userPlatform) validate(cfg pipeline.Config) error {
	for _, cs := range u.surface.Classifiers {
		if cs.Name == cfg.Classifier {
			return nil
		}
	}
	return fmt.Errorf("platforms: %s does not offer classifier %q", u.name, cfg.Classifier)
}

// RunCtx implements Platform.
func (u *userPlatform) RunCtx(ctx context.Context, cfg pipeline.Config, train, test *dataset.Dataset, seed uint64, cache *pipeline.FeatCache) (pipeline.Result, error) {
	if err := u.validate(cfg); err != nil {
		return pipeline.Result{}, err
	}
	return pipeline.Run(ctx, cfg, train, test, runRNG(u.name, train.Name, seed), cache)
}

// Run implements Platform.
func (u *userPlatform) Run(cfg pipeline.Config, train, test *dataset.Dataset, seed uint64) (pipeline.Result, error) {
	return u.RunCtx(context.Background(), cfg, train, test, seed, nil)
}

// FitCtx implements Platform: validate against the surface, then train the
// standard pipeline once under the same RNG stream RunCtx derives.
func (u *userPlatform) FitCtx(ctx context.Context, cfg pipeline.Config, train *dataset.Dataset, seed uint64) (FittedModel, error) {
	if err := u.validate(cfg); err != nil {
		return nil, err
	}
	return pipeline.Fit(ctx, cfg, train, runRNG(u.name, train.Name, seed))
}

// Fit implements Platform.
func (u *userPlatform) Fit(cfg pipeline.Config, train *dataset.Dataset, seed uint64) (FittedModel, error) {
	return u.FitCtx(context.Background(), cfg, train, seed)
}

// runRNG derives the deterministic RNG for one platform/dataset run.
func runRNG(platform, datasetName string, seed uint64) *rng.RNG {
	return rng.New(seed).Split("platform/" + platform + "/" + datasetName)
}
