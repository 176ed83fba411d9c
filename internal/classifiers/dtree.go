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
	}, func(p params) Classifier { return &DecisionTree{params: p} })
}

// DecisionTree is a CART binary decision tree with gini or entropy impurity,
// optional per-split feature subsampling and BigML's node-threshold stopping
// rule.
type DecisionTree struct {
	params
	root *treeNode
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
		maxDepth:      t.params.integer("max_depth"),
		minLeaf:       1,
		maxFeatures:   t.params.option("max_features"),
		criterion:     t.params.option("criterion"),
		nodeThreshold: t.params.integer("node_threshold"),
	}
	mem := getTreeMem()
	mem.target = labelsToFloats(mem.target, y)
	mem.boot = allIndices(mem.boot, len(x))
	t.root = growTreePresorted(p.of(x), mem, x, mem.target, mem.boot, cfg, r, 0)
	putTreeMem(mem)
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
