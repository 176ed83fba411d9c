package classifiers

import (
	"math"

	"mlaasbench/internal/linalg"
	"mlaasbench/internal/rng"
)

func init() {
	register(Info{
		Name:   "svm",
		Label:  "SVM",
		Linear: true,
		Params: []ParamSpec{
			{Name: "C", Kind: Numeric, Default: 1.0, Min: 1e-4, Max: 1e4},
			{Name: "loss", Kind: Categorical, Options: []any{"hinge", "squared_hinge"}},
			{Name: "penalty", Kind: Categorical, Options: []any{"l2"}},
			{Name: "max_iter", Kind: Numeric, Default: 200, Min: 2, Max: 1000, IsInt: true},
		},
	}, func(p params) Classifier { return &LinearSVM{params: p} })
}

// LinearSVM is a linear support vector machine trained with the Pegasos
// stochastic sub-gradient algorithm on the (squared) hinge loss. Microsoft's
// SVM exposes #iterations and Lambda; the local arm exposes penalty, C and
// loss (Table 1). Lambda and C are two views of the same knob: λ = 1/(C·n).
type LinearSVM struct {
	params
	w []float64
	b float64
}

// Name implements Classifier.
func (*LinearSVM) Name() string { return "svm" }

// Fit implements Classifier.
func (s *LinearSVM) Fit(x [][]float64, y []int, r *rng.RNG) error {
	n, d, err := validateFit(x, y)
	if err != nil {
		return err
	}
	c := s.params.float("C")
	lambda := 1 / (c * float64(n))
	squared := s.params.option("loss") == "squared_hinge"
	epochs := s.params.integer("max_iter")
	ys := signedLabels(y)

	s.w = make([]float64, d)
	s.b = 0
	t := 0
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < epochs; epoch++ {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			t++
			lr := 1 / (lambda * float64(t))
			margin := ys[i] * (linalg.Dot(s.w, x[i]) + s.b)
			// Shrink by the regularizer.
			linalg.Scale(1-lr*lambda, s.w)
			if margin < 1 {
				coef := lr * ys[i]
				if squared {
					coef *= 2 * (1 - margin)
				}
				linalg.AXPY(coef, x[i], s.w)
				s.b += coef * 0.1 // small unregularized bias step
			}
			// Pegasos projection step keeps ||w|| ≤ 1/sqrt(lambda).
			norm := linalg.Norm2(s.w)
			if limit := 1 / math.Sqrt(lambda); norm > limit {
				linalg.Scale(limit/norm, s.w)
			}
		}
	}
	return nil
}

// Predict implements Classifier.
func (s *LinearSVM) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		if linalg.Dot(s.w, row)+s.b > 0 {
			out[i] = 1
		}
	}
	return out
}
