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
// data again. Every option is row-local, so the transform is one row
// kernel; Apply is read-only and safe for concurrent use.
type FittedTransform struct {
	feat Feat
	// row is the option's kernel: a preprocess.Scaler, the filter's
	// columns or a *featsel.FisherLDA; nil for "none".
	row preprocess.RowTransform
}

// columns is the filter option's row kernel: it gathers the kept columns,
// ascending.
type columns []int

// Width implements preprocess.RowTransform.
func (c columns) Width(int) int { return len(c) }

// TransformRow implements preprocess.RowTransform.
func (c columns) TransformRow(dst, src []float64) {
	for k, j := range c {
		dst[k] = src[j]
	}
}

// Feat returns the option this transform was fitted for.
func (t *FittedTransform) Feat() Feat { return t.feat }

// stage names the telemetry stage a FEAT kind is timed under.
func stage(kind string) string {
	if kind == "scaler" {
		return "preprocess"
	}
	return "featsel"
}

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
	case "scaler", "filter", "fisherlda":
		defer telemetry.TimeCtx(ctx, stage(f.Kind))()
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
		t.row = sc
		return t, preprocess.Transform(sc, train.X), nil
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
		t.row = columns(cols)
		return t, train.SelectFeatures(cols).X, nil
	case "fisherlda":
		lda := &featsel.FisherLDA{}
		xTr := lda.FitTransform(train.X, train.Y)
		t.row = lda
		return t, xTr, nil
	default:
		return nil, nil, fmt.Errorf("pipeline: unknown FEAT kind %q", f.Kind)
	}
}

// Apply transforms query rows with the fitted statistics into a new matrix
// the caller owns. The inputs are never modified; the "none" option returns
// the rows themselves, not a copy.
func (t *FittedTransform) Apply(points [][]float64) [][]float64 {
	return t.ApplyCtx(context.Background(), points)
}

// ApplyCtx is Apply with context-routed stage timing (see Run).
func (t *FittedTransform) ApplyCtx(ctx context.Context, points [][]float64) [][]float64 {
	var s preprocess.Scratch
	return t.applyInto(ctx, &s, points)
}

// applyInto is ApplyCtx writing into s: the rows it returns belong to s
// (for "none", they are points themselves) and are valid until s is reused.
func (t *FittedTransform) applyInto(ctx context.Context, s *preprocess.Scratch, points [][]float64) [][]float64 {
	if t.row == nil {
		return points
	}
	w := telemetry.StartStopwatch(ctx, stage(t.feat.Kind))
	out := preprocess.TransformInto(s, t.row, points)
	w.Stop()
	return out
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
// arguments: same seed, same model. A non-nil cache, scoped to train,
// shares the fitted FEAT transform and the training matrix's presort with
// every other fit on train; a nil cache fits afresh, with an identical
// model. Stage timing is context-routed (see Run).
func Fit(ctx context.Context, cfg Config, train *dataset.Dataset, r *rng.RNG, cache *FeatCache) (*FittedPipeline, error) {
	v, err := cache.view(ctx, cfg.Feat, train, nil)
	if err != nil {
		return nil, err
	}
	clf, err := classifiers.New(cfg.Classifier, cfg.Params)
	if err != nil {
		return nil, err
	}
	stopFit := telemetry.TimeCtx(ctx, "fit")
	err = classifiers.FitWith(clf, v.xTr, train.Y, r.Split("fit/"+cfg.String()), v.pre)
	stopFit()
	if err != nil {
		return nil, fmt.Errorf("pipeline: fit %s on %s: %w", cfg.Classifier, train.Name, err)
	}
	return &FittedPipeline{Config: cfg, transform: v.t, clf: clf}, nil
}

// Predict labels query points with the resident model: transform with the
// fitted FEAT statistics, then one classifier forward pass. No training
// happens here.
func (fp *FittedPipeline) Predict(points [][]float64) []int {
	return fp.PredictCtx(context.Background(), points)
}

// PredictCtx is Predict with context-routed stage timing (see Run). The
// transformed rows live in a pooled scratch borrowed for this call alone, so
// the forward pass allocates its labels and not a copy of points; that is
// safe because no classifier keeps its Predict input
// (TestPredictDoesNotRetainInput). The scratch goes back on a normal return
// only: a panicking call leaves it to the collector.
func (fp *FittedPipeline) PredictCtx(ctx context.Context, points [][]float64) []int {
	s := GetScratch()
	xQ := fp.transform.applyInto(ctx, s, points)
	w := telemetry.StartStopwatch(ctx, "predict")
	labels := fp.clf.Predict(xQ)
	w.Stop()
	PutScratch(s)
	return labels
}
