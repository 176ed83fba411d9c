package classifiers

import (
	"math"

	"mlaasbench/internal/linalg"
	"mlaasbench/internal/rng"
)

func init() {
	register(Info{
		Name:   "boosted",
		Label:  "BST",
		Linear: false,
		Params: []ParamSpec{
			{Name: "n_estimators", Kind: Numeric, Default: 50, Min: 1, Max: 150, IsInt: true},
			{Name: "learning_rate", Kind: Numeric, Default: 0.1, Min: 1e-3, Max: 10},
			{Name: "max_leaves", Kind: Numeric, Default: 8, Min: 2, Max: 128, IsInt: true},
			{Name: "min_leaf", Kind: Numeric, Default: 2, Min: 1, Max: 100, IsInt: true},
			{Name: "max_features", Kind: Categorical, Options: []any{"all", "sqrt", "log2"}},
			{Name: "criterion", Kind: Categorical, Options: []any{"mse"}},
		},
	}, func(p Params) Classifier { return &BoostedTrees{params: p} })
}

// BoostedTrees is stochastic gradient boosting (Friedman 2002) with
// regression trees on the logistic loss — the "Boosted Decision Tree"
// entry in Microsoft and the local library. max_leaves bounds tree size by
// limiting depth to ⌈log2(max_leaves)⌉, mirroring Microsoft's
// leaves-per-tree control.
type BoostedTrees struct {
	params Params
	trees  []*treeNode
	lr     float64
	bias   float64
}

// Name implements Classifier.
func (*BoostedTrees) Name() string { return "boosted" }

// Fit implements Classifier.
func (b *BoostedTrees) Fit(x [][]float64, y []int, r *rng.RNG) error {
	return b.fitPresorted(x, y, r, nil)
}

func (b *BoostedTrees) fitPresorted(x [][]float64, y []int, r *rng.RNG, p *Presort) error {
	n, _, err := validateFit(x, y)
	if err != nil {
		return err
	}
	rounds := b.params.Int("n_estimators", 50)
	if rounds < 1 {
		rounds = 1
	}
	b.lr = b.params.Float("learning_rate", 0.1)
	maxLeaves := b.params.Int("max_leaves", 8)
	if maxLeaves < 2 {
		maxLeaves = 2
	}
	depth := int(math.Ceil(math.Log2(float64(maxLeaves))))
	if depth < 1 {
		depth = 1
	}
	cfg := treeConfig{
		maxDepth:    depth,
		minLeaf:     b.params.Int("min_leaf", 2),
		maxFeatures: b.params.String("max_features", "all"),
		criterion:   "mse",
	}
	if cfg.minLeaf < 1 {
		cfg.minLeaf = 1
	}

	// Initialize with the prior log-odds.
	pos := 0
	for _, v := range y {
		pos += v
	}
	p0 := (float64(pos) + 0.5) / (float64(n) + 1)
	b.bias = math.Log(p0 / (1 - p0))

	score := make([]float64, n)
	for i := range score {
		score[i] = b.bias
	}
	residual := make([]float64, n)
	idx := allIndices(n)
	pre := p.of(x) // shared across rounds; residuals change, x doesn't
	mem := &treeMem{}
	b.trees = make([]*treeNode, 0, rounds)
	for round := 0; round < rounds; round++ {
		// Negative gradient of logistic loss: y - sigmoid(score).
		for i := 0; i < n; i++ {
			residual[i] = float64(y[i]) - linalg.Sigmoid(score[i])
		}
		tree := growTreePresorted(pre, mem, x, residual, idx, cfg, r, 0)
		b.trees = append(b.trees, tree)
		for i := 0; i < n; i++ {
			score[i] += b.lr * tree.predict(x[i])
		}
	}
	return nil
}

// Predict implements Classifier.
func (b *BoostedTrees) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		if b.score(row) > 0 {
			out[i] = 1
		}
	}
	return out
}

func (b *BoostedTrees) score(row []float64) float64 {
	s := b.bias
	for _, t := range b.trees {
		s += b.lr * t.predict(row)
	}
	return s
}
