package pipeline

import (
	"context"
	"fmt"
	"sort"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/featsel"
	"mlaasbench/internal/preprocess"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/telemetry"
)

// FittedTransform is one FEAT option after fitting on a training set: the
// learned statistics (scaler moments, selected columns, LDA projection) kept
// resident so query points can be transformed without touching the training
// data again. Apply is read-only and safe for concurrent use.
type FittedTransform struct {
	feat   Feat
	scaler preprocess.Scaler // Kind "scaler"
	cols   []int             // Kind "filter": kept columns, ascending
	lda    *featsel.FisherLDA
}

// Feat returns the option this transform was fitted for.
func (t *FittedTransform) Feat() Feat { return t.feat }

// FitFeat fits the FEAT option on the training set and returns the reusable
// transform plus the transformed training matrix. Apply on any rows then
// yields exactly what Run would produce for the same fitted state, so
// fit-once serving stays byte-identical to the refit path.
func FitFeat(f Feat, train *dataset.Dataset) (*FittedTransform, [][]float64, error) {
	return FitFeatCtx(context.Background(), f, train)
}

// FitFeatCtx is FitFeat with context-routed stage timing (see Run).
func FitFeatCtx(ctx context.Context, f Feat, train *dataset.Dataset) (*FittedTransform, [][]float64, error) {
	switch f.Kind {
	case "scaler":
		defer telemetry.TimeCtx(ctx, "preprocess")()
	case "filter", "fisherlda":
		defer telemetry.TimeCtx(ctx, "featsel")()
	}
	t := &FittedTransform{feat: f}
	switch f.Kind {
	case "", "none":
		return t, train.X, nil
	case "scaler":
		sc, err := preprocess.New(f.Name)
		if err != nil {
			return nil, nil, err
		}
		sc.Fit(train.X)
		t.scaler = sc
		return t, sc.Transform(train.X), nil
	case "filter":
		sel, err := featsel.New(f.Name)
		if err != nil {
			return nil, nil, err
		}
		k := int(FilterKeepFraction * float64(train.D()))
		if k < 1 {
			k = 1
		}
		cols := sel.Select(train.X, train.Y, k)
		sort.Ints(cols)
		t.cols = cols
		return t, train.SelectFeatures(cols).X, nil
	case "fisherlda":
		lda := &featsel.FisherLDA{}
		xTr := lda.FitTransform(train.X, train.Y)
		t.lda = lda
		return t, xTr, nil
	default:
		return nil, nil, fmt.Errorf("pipeline: unknown FEAT kind %q", f.Kind)
	}
}

// Apply transforms query rows with the fitted statistics. The inputs are
// never modified; the "none" option returns the rows unchanged.
func (t *FittedTransform) Apply(points [][]float64) [][]float64 {
	return t.ApplyCtx(context.Background(), points)
}

// ApplyCtx is Apply with context-routed stage timing (see Run).
func (t *FittedTransform) ApplyCtx(ctx context.Context, points [][]float64) [][]float64 {
	switch t.feat.Kind {
	case "", "none":
		return points
	case "scaler":
		defer telemetry.TimeCtx(ctx, "preprocess")()
		return t.scaler.Transform(points)
	case "filter":
		defer telemetry.TimeCtx(ctx, "featsel")()
		// One flat backing array for the whole batch: a single allocation
		// instead of one per row on the serving hot path.
		w := len(t.cols)
		flat := make([]float64, len(points)*w)
		out := make([][]float64, len(points))
		for i, row := range points {
			dst := flat[i*w : (i+1)*w : (i+1)*w]
			for k, c := range t.cols {
				dst[k] = row[c]
			}
			out[i] = dst
		}
		return out
	case "fisherlda":
		defer telemetry.TimeCtx(ctx, "featsel")()
		return t.lda.Transform(points)
	}
	// FitFeat rejects unknown kinds, so a FittedTransform always has a
	// recognized one.
	panic("pipeline: Apply on unfitted transform")
}

// FittedPipeline is a trained pipeline configuration: the fitted FEAT
// transform plus the trained classifier, kept resident so prediction is a
// pure forward pass. It is the artifact a serving system stores after
// training instead of re-running the fit per query. Predict is safe for
// concurrent use (classifiers and transforms never mutate state after Fit).
type FittedPipeline struct {
	Config    Config
	transform *FittedTransform
	clf       classifiers.Classifier
}

// Fit trains the configuration on train and returns the reusable fitted
// pipeline. The RNG discipline matches Run exactly — the classifier trains
// under r.Split("fit/"+cfg.String()) — so Fit followed by Predict on the
// test rows yields labels byte-identical to Run's Pred with the same
// arguments: same seed, same model. Stage timing is context-routed (see
// Run).
func Fit(ctx context.Context, cfg Config, train *dataset.Dataset, r *rng.RNG) (*FittedPipeline, error) {
	t, xTr, err := FitFeatCtx(ctx, cfg.Feat, train)
	if err != nil {
		return nil, err
	}
	clf, err := classifiers.New(cfg.Classifier, cfg.Params)
	if err != nil {
		return nil, err
	}
	stopFit := telemetry.TimeCtx(ctx, "fit")
	err = clf.Fit(xTr, train.Y, r.Split("fit/"+cfg.String()))
	stopFit()
	if err != nil {
		return nil, fmt.Errorf("pipeline: fit %s on %s: %w", cfg.Classifier, train.Name, err)
	}
	return &FittedPipeline{Config: cfg, transform: t, clf: clf}, nil
}

// Predict labels query points with the resident model: transform with the
// fitted FEAT statistics, then one classifier forward pass. No training
// happens here.
func (fp *FittedPipeline) Predict(points [][]float64) []int {
	return fp.PredictCtx(context.Background(), points)
}

// PredictCtx is Predict with context-routed stage timing (see Run).
func (fp *FittedPipeline) PredictCtx(ctx context.Context, points [][]float64) []int {
	xQ := fp.transform.ApplyCtx(ctx, points)
	stop := telemetry.TimeCtx(ctx, "predict")
	defer stop()
	return fp.clf.Predict(xQ)
}
