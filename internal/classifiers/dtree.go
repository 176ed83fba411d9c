package classifiers

import "mlaasbench/internal/rng"

func init() {
	register(Info{
		Name:   "dtree",
		Label:  "DT",
		Linear: false,
		Params: []ParamSpec{
			{Name: "criterion", Kind: Categorical, Options: []any{"gini", "entropy"}},
			{Name: "max_features", Kind: Categorical, Options: []any{"all", "sqrt", "log2"}},
			{Name: "max_depth", Kind: Numeric, Default: 10, Min: 1, Max: 64, IsInt: true},
			{Name: "node_threshold", Kind: Numeric, Default: 2, Min: 2, Max: 1000, IsInt: true},
		},
	}, func(p Params) Classifier { return &DecisionTree{params: p} })
}

// DecisionTree is a CART binary decision tree with gini or entropy impurity,
// optional per-split feature subsampling and BigML's node-threshold stopping
// rule.
type DecisionTree struct {
	params Params
	root   *treeNode
}

// Name implements Classifier.
func (*DecisionTree) Name() string { return "dtree" }

// Fit implements Classifier.
func (t *DecisionTree) Fit(x [][]float64, y []int, r *rng.RNG) error {
	return t.fitPresorted(x, y, r, nil)
}

func (t *DecisionTree) fitPresorted(x [][]float64, y []int, r *rng.RNG, p *Presort) error {
	if _, _, err := validateFit(x, y); err != nil {
		return err
	}
	cfg := treeConfig{
		maxDepth:      t.params.Int("max_depth", 10),
		minLeaf:       1,
		maxFeatures:   t.params.String("max_features", "all"),
		criterion:     t.params.String("criterion", "gini"),
		nodeThreshold: t.params.Int("node_threshold", 2),
	}
	t.root = growTreePresorted(p.of(x), &treeMem{}, x, labelsToFloats(y), allIndices(len(x)), cfg, r, 0)
	return nil
}

// Predict implements Classifier.
func (t *DecisionTree) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		if t.root.predict(row) > 0.5 {
			out[i] = 1
		}
	}
	return out
}

// Depth reports the grown tree's depth (diagnostics).
func (t *DecisionTree) Depth() int { return t.root.depth() }
