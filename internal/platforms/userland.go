package platforms

import (
	"context"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/preprocess"
)

// Amazon simulates Amazon Machine Learning: the only classifier is Logistic
// Regression with three tunable parameters (maxIter, regParam, shuffleType —
// Table 1), no FEAT control — and a hidden server-side quantile-binning
// recipe applied to every feature before training. The binning is what lets
// a "Logistic Regression" service produce the non-linear CIRCLE boundary
// the paper observes (Figure 13, §6.2).
type Amazon struct {
	userPlatform
}

func newAmazon() *Amazon {
	return &Amazon{userPlatform{
		name:       "amazon",
		complexity: 2,
		surface: pipeline.Surface{
			Classifiers: []pipeline.ClassifierSurface{
				// Amazon's documented default is 10 passes over the data.
				{Name: "logreg", Params: pipeline.WithDefault(
					pipeline.SpecsFor("logreg", "max_iter", "C", "shuffle"),
					"max_iter", 10)},
			},
		},
	}}
}

// RunCtx implements Platform, inserting the hidden binning step. Amazon
// has no FEAT dimension, so the cache's transform path is idle here; what
// dominates its per-config cost is fitting the hidden binner and binning
// both matrices, which depend only on the split, so a non-nil cache
// memoizes them instead. (The override is a correctness matter too: the
// embedded userPlatform.RunCtx would skip the hidden binning entirely.)
func (a *Amazon) RunCtx(ctx context.Context, cfg pipeline.Config, train, test *dataset.Dataset, seed uint64, cache *pipeline.FeatCache) (pipeline.Result, error) {
	if err := a.validate(cfg); err != nil {
		return pipeline.Result{}, err
	}
	v, err := cache.Memo("amazon/binned", func() (any, error) {
		q := a.binner(train)
		return [2]*dataset.Dataset{binned(q, train), binned(q, test)}, nil
	})
	if err != nil {
		return pipeline.Result{}, err
	}
	split := v.([2]*dataset.Dataset)
	return pipeline.Run(ctx, cfg, split[0], split[1], runRNG(a.name, train.Name, seed), nil)
}

// Run implements Platform.
func (a *Amazon) Run(cfg pipeline.Config, train, test *dataset.Dataset, seed uint64) (pipeline.Result, error) {
	return a.RunCtx(context.Background(), cfg, train, test, seed, nil)
}

// FitCtx implements Platform: the fitted artifact bundles the hidden binner
// with the trained pipeline, so query points are binned with the statistics
// learned at train time. (As with RunCtx, the embedded userPlatform.FitCtx
// would skip the hidden binning entirely.) The binned set is not the
// cache's training set and logistic regression has no presort to share, so
// the cache is unused.
func (a *Amazon) FitCtx(ctx context.Context, cfg pipeline.Config, train *dataset.Dataset, seed uint64, _ *pipeline.FeatCache) (FittedModel, error) {
	if err := a.validate(cfg); err != nil {
		return nil, err
	}
	q := a.binner(train)
	fp, err := pipeline.Fit(ctx, cfg, binned(q, train), runRNG(a.name, train.Name, seed), nil)
	if err != nil {
		return nil, err
	}
	return &binnedModel{q: q, fp: fp}, nil
}

// Fit implements Platform.
func (a *Amazon) Fit(cfg pipeline.Config, train *dataset.Dataset, seed uint64) (FittedModel, error) {
	return a.FitCtx(context.Background(), cfg, train, seed, nil)
}

// binnedModel pairs Amazon's hidden quantile binner with a trained pipeline
// so the resident model accepts raw-space query points.
type binnedModel struct {
	q  *preprocess.OneHotBinning
	fp *pipeline.FittedPipeline
}

// PredictCtx implements FittedModel.
func (m *binnedModel) PredictCtx(ctx context.Context, points [][]float64) []int {
	return m.fp.PredictCtx(ctx, m.q.Transform(points))
}

// Predict implements FittedModel.
func (m *binnedModel) Predict(points [][]float64) []int {
	return m.PredictCtx(context.Background(), points)
}

func (*Amazon) binner(train *dataset.Dataset) *preprocess.OneHotBinning {
	q := &preprocess.OneHotBinning{Bins: 12}
	q.Fit(train.X)
	return q
}

// binned returns ds with every feature passed through the hidden binner q.
// Only X is replaced; labels and metadata are shared read-only.
func binned(q *preprocess.OneHotBinning, ds *dataset.Dataset) *dataset.Dataset {
	b := *ds
	b.X = q.Transform(ds.X)
	return &b
}

// BigML simulates BigML's supervised-learning surface: Logistic Regression,
// Decision Tree, Bagging and Random Forests (Table 1), no FEAT control.
// Table 1's "ordering"/"random candidates" tree controls map to the
// impurity criterion and per-split feature sampling of the shared CART
// substrate (see DESIGN.md).
type BigML struct {
	userPlatform
}

func newBigML() *BigML {
	return &BigML{userPlatform{
		name:       "bigml",
		complexity: 3,
		surface: pipeline.Surface{
			Classifiers: []pipeline.ClassifierSurface{
				// regularization / strength / eps
				{Name: "logreg", Params: pipeline.SpecsFor("logreg", "penalty", "C", "tol")},
				// node threshold / ordering / random candidates
				{Name: "dtree", Params: pipeline.SpecsFor("dtree", "node_threshold", "criterion", "max_features")},
				// node threshold / number of models / ordering
				{Name: "bagging", Params: pipeline.SpecsFor("bagging", "node_threshold", "n_estimators", "max_features")},
				// node threshold / number of models / ordering
				{Name: "randomforest", Params: pipeline.SpecsFor("randomforest", "min_samples_leaf", "n_estimators", "max_features")},
			},
		},
	}}
}

// PredictionIO simulates Apache PredictionIO's classification templates:
// Logistic Regression, Naive Bayes and Decision Tree (Table 1), no FEAT.
// numClasses is fixed at 2 for binary tasks, so the exposed DT knobs are
// maxDepth plus the impurity criterion.
type PredictionIO struct {
	userPlatform
}

func newPredictionIO() *PredictionIO {
	return &PredictionIO{userPlatform{
		name:       "predictionio",
		complexity: 4,
		surface: pipeline.Surface{
			Classifiers: []pipeline.ClassifierSurface{
				// maxIter / regParam / fitIntercept
				{Name: "logreg", Params: pipeline.SpecsFor("logreg", "max_iter", "C", "fit_intercept")},
				// lambda — the PredictionIO template defaults to 1.0
				{Name: "naivebayes", Params: pipeline.WithDefault(
					pipeline.SpecsFor("naivebayes", "lambda"), "lambda", 1.0)},
				// numClasses (fixed) / maxDepth — template default depth 5
				{Name: "dtree", Params: pipeline.WithDefault(
					pipeline.SpecsFor("dtree", "max_depth", "criterion"), "max_depth", 5)},
			},
		},
	}}
}

// Microsoft simulates Azure ML Studio, the most configurable platform:
// 8 FEAT methods (Fisher LDA plus 7 filter scores) and 7 classifiers with
// the Table-1 parameter lists.
type Microsoft struct {
	userPlatform
}

func newMicrosoft() *Microsoft {
	return &Microsoft{userPlatform{
		name:       "microsoft",
		complexity: 5,
		surface: pipeline.Surface{
			Feats: []pipeline.Feat{
				{Kind: "fisherlda"},
				{Kind: "filter", Name: "pearson"},
				{Kind: "filter", Name: "mutual"},
				{Kind: "filter", Name: "kendall"},
				{Kind: "filter", Name: "spearman"},
				{Kind: "filter", Name: "chi"},
				{Kind: "filter", Name: "fisher"},
				{Kind: "filter", Name: "count"},
			},
			Classifiers: []pipeline.ClassifierSurface{
				// Azure Studio ships its own defaults, several of them
				// surprising — most famously SVM's single training
				// iteration — which is what gives the real platform its
				// wide default-classifier spread (§5, Figure 7).
				// optimization tolerance / L1 weight / L2 weight / L-BFGS memory
				{Name: "logreg", Params: pipeline.SpecsFor("logreg", "tol", "penalty", "C", "solver")},
				// # of iterations (Azure default: 1) / Lambda (0.001)
				{Name: "svm", Params: pipeline.WithDefault(
					pipeline.SpecsFor("svm", "max_iter", "C"), "max_iter", 1)},
				// learning rate / max # of iterations
				{Name: "perceptron", Params: pipeline.SpecsFor("perceptron", "learning_rate", "max_iter")},
				// # of training iterations
				{Name: "bpm", Params: pipeline.SpecsFor("bpm", "n_iter")},
				// max leaves (20) / min per leaf (10) / learning rate (0.2) / # trees (100)
				{Name: "boosted", Params: pipeline.WithDefault(pipeline.WithDefault(pipeline.WithDefault(pipeline.WithDefault(
					pipeline.SpecsFor("boosted", "max_leaves", "min_leaf", "learning_rate", "n_estimators"),
					"max_leaves", 20), "min_leaf", 10), "learning_rate", 0.2), "n_estimators", 100)},
				// resampling / # trees (8) / max depth (32) / # random splits / min per leaf
				{Name: "randomforest", Params: pipeline.WithDefault(pipeline.WithDefault(
					pipeline.SpecsFor("randomforest", "resampling", "n_estimators", "max_depth", "random_splits", "min_samples_leaf"),
					"n_estimators", 8), "max_depth", 32)},
				// # DAGs (8) / depth / width / optimization steps per layer
				{Name: "jungle", Params: pipeline.WithDefault(
					pipeline.SpecsFor("jungle", "n_dags", "max_depth", "max_width", "opt_steps"),
					"max_width", 64)},
			},
		},
	}}
}

// Local simulates the fully controlled scikit-learn arm: the Table-1 FEAT
// list (filter scores + scalers) and all ten classifiers of Table 1's
// scikit-learn row.
type Local struct {
	userPlatform
}

func newLocal() *Local {
	return &Local{userPlatform{
		name:       "local",
		complexity: 6,
		surface: pipeline.Surface{
			Feats: []pipeline.Feat{
				{Kind: "filter", Name: "fclassif"},
				{Kind: "filter", Name: "mutual"},
				{Kind: "filter", Name: "fisher"},
				{Kind: "scaler", Name: "standard"},
				{Kind: "scaler", Name: "minmax"},
				{Kind: "scaler", Name: "maxabs"},
				{Kind: "scaler", Name: "l1norm"},
				{Kind: "scaler", Name: "l2norm"},
			},
			Classifiers: []pipeline.ClassifierSurface{
				// The local library exposes the most parameters of any arm
				// (Table 2: 32 explored vs Microsoft's 23).
				{Name: "logreg", Params: pipeline.SpecsFor("logreg", "penalty", "C", "solver", "max_iter", "tol")},
				{Name: "naivebayes", Params: pipeline.SpecsFor("naivebayes", "prior")},
				{Name: "svm", Params: pipeline.SpecsFor("svm", "penalty", "C", "loss", "max_iter")},
				{Name: "lda", Params: pipeline.SpecsFor("lda", "solver", "shrinkage")},
				{Name: "knn", Params: pipeline.SpecsFor("knn", "n_neighbors", "weights", "p")},
				{Name: "dtree", Params: pipeline.SpecsFor("dtree", "criterion", "max_features", "max_depth")},
				{Name: "boosted", Params: pipeline.SpecsFor("boosted", "n_estimators", "criterion", "max_features", "learning_rate")},
				{Name: "bagging", Params: pipeline.SpecsFor("bagging", "n_estimators", "max_features", "node_threshold")},
				{Name: "randomforest", Params: pipeline.SpecsFor("randomforest", "n_estimators", "max_features", "max_depth")},
				{Name: "mlp", Params: pipeline.SpecsFor("mlp", "activation", "solver", "alpha", "max_iter")},
			},
		},
	}}
}
