package classifiers

import "mlaasbench/internal/rng"

func init() {
	register(Info{
		Name:   "bagging",
		Label:  "BAG",
		Linear: false,
		Params: []ParamSpec{
			{Name: "n_estimators", Kind: Numeric, Default: 10, Min: 1, Max: 100, IsInt: true},
			{Name: "max_features", Kind: Categorical, Options: []any{"all", "sqrt", "log2"}},
			{Name: "node_threshold", Kind: Numeric, Default: 2, Min: 2, Max: 1000, IsInt: true},
		},
	}, func(p params) Classifier { return &Bagging{params: p} })

	register(Info{
		Name:   "randomforest",
		Label:  "RF",
		Linear: false,
		Params: []ParamSpec{
			{Name: "n_estimators", Kind: Numeric, Default: 10, Min: 1, Max: 100, IsInt: true},
			{Name: "max_features", Kind: Categorical, Options: []any{"sqrt", "log2", "all"}},
			{Name: "max_depth", Kind: Numeric, Default: 16, Min: 1, Max: 64, IsInt: true},
			{Name: "random_splits", Kind: Numeric, Default: 0, Min: 0, Max: 128, IsInt: true},
			{Name: "min_samples_leaf", Kind: Numeric, Default: 1, Min: 1, Max: 100, IsInt: true},
			{Name: "resampling", Kind: Categorical, Options: []any{"bagging", "replicate"}},
		},
	}, func(p params) Classifier { return &RandomForest{params: p} })
}

// Bagging is bootstrap aggregation of full decision trees with majority
// vote (Breiman 1996). BigML's Bagging exposes node threshold, number of
// models and ordering; here ordering is subsumed by the deterministic RNG.
type Bagging struct {
	params
	trees []*treeNode
}

// Name implements Classifier.
func (*Bagging) Name() string { return "bagging" }

// Fit implements Classifier.
func (b *Bagging) Fit(x [][]float64, y []int, r *rng.RNG) error {
	return b.fitPresorted(x, y, r, nil)
}

func (b *Bagging) fitPresorted(x [][]float64, y []int, r *rng.RNG, p *Presort) error {
	if _, _, err := validateFit(x, y); err != nil {
		return err
	}
	n := len(x)
	count := b.params.integer("n_estimators")
	if count < 1 {
		count = 1
	}
	cfg := treeConfig{
		maxDepth:      0,
		minLeaf:       1,
		maxFeatures:   b.params.option("max_features"),
		criterion:     "gini",
		nodeThreshold: b.params.integer("node_threshold"),
	}
	pre := p.of(x)
	mem := getTreeMem()
	mem.target = labelsToFloats(mem.target, y)
	b.trees = make([]*treeNode, count)
	for t := 0; t < count; t++ {
		mem.boot = bootstrapIndices(mem.boot, n, r)
		b.trees[t] = growTreePresorted(pre, mem, x, mem.target, mem.boot, cfg, r, 0)
	}
	putTreeMem(mem)
	return nil
}

// Predict implements Classifier.
func (b *Bagging) Predict(x [][]float64) []int {
	return votePredict(b.trees, x)
}

// RandomForest is bagged trees with per-split random feature subsets
// (Breiman 2001). Microsoft's variant also exposes the resampling method,
// the number of random splits evaluated per node, and the minimum samples
// per leaf — all mapped here.
type RandomForest struct {
	params
	trees []*treeNode
}

// Name implements Classifier.
func (*RandomForest) Name() string { return "randomforest" }

// Fit implements Classifier.
func (f *RandomForest) Fit(x [][]float64, y []int, r *rng.RNG) error {
	return f.fitPresorted(x, y, r, nil)
}

func (f *RandomForest) fitPresorted(x [][]float64, y []int, r *rng.RNG, p *Presort) error {
	if _, _, err := validateFit(x, y); err != nil {
		return err
	}
	n := len(x)
	count := f.params.integer("n_estimators")
	if count < 1 {
		count = 1
	}
	cfg := treeConfig{
		maxDepth:     f.params.integer("max_depth"),
		minLeaf:      f.params.integer("min_samples_leaf"),
		maxFeatures:  f.params.option("max_features"),
		criterion:    "gini",
		randomSplits: f.params.integer("random_splits"),
	}
	if cfg.minLeaf < 1 {
		cfg.minLeaf = 1
	}
	replicate := f.params.option("resampling") == "replicate"
	pre := p.of(x)
	mem := getTreeMem()
	mem.target = labelsToFloats(mem.target, y)
	if replicate {
		mem.boot = allIndices(mem.boot, n) // every tree sees the full data; diversity comes from feature sampling
	}
	f.trees = make([]*treeNode, count)
	for t := 0; t < count; t++ {
		if !replicate {
			mem.boot = bootstrapIndices(mem.boot, n, r)
		}
		f.trees[t] = growTreePresorted(pre, mem, x, mem.target, mem.boot, cfg, r, 0)
	}
	putTreeMem(mem)
	return nil
}

// Predict implements Classifier.
func (f *RandomForest) Predict(x [][]float64) []int {
	return votePredict(f.trees, x)
}

// votePredict majority-votes an ensemble of probability trees.
func votePredict(trees []*treeNode, x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		sum := 0.0
		for _, t := range trees {
			sum += t.predict(row)
		}
		if sum > float64(len(trees))/2 {
			out[i] = 1
		}
	}
	return out
}
