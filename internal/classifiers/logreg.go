package classifiers

import (
	"math"

	"mlaasbench/internal/linalg"
	"mlaasbench/internal/rng"
)

func init() {
	register(Info{
		Name:   "logreg",
		Label:  "LR",
		Linear: true,
		Params: []ParamSpec{
			{Name: "penalty", Kind: Categorical, Options: []any{"l2", "l1"}},
			// C below 0.1 collapses the model to the majority class under
			// the 1/(C·n) sum-loss convention; §3.2's validity screening
			// ("manually examine ... acceptable value range") bounds the
			// grid accordingly.
			{Name: "C", Kind: Numeric, Default: 1.0, Min: 0.1, Max: 1e4},
			{Name: "solver", Kind: Categorical, Options: []any{"sgd", "newton"}},
			{Name: "max_iter", Kind: Numeric, Default: 100, Min: 1, Max: 500, IsInt: true},
			{Name: "tol", Kind: Numeric, Default: 1e-4, Min: 1e-8, Max: 1e-1},
			{Name: "shuffle", Kind: Categorical, Options: []any{"true", "false"}},
			{Name: "fit_intercept", Kind: Categorical, Options: []any{"true", "false"}},
		},
	}, func(p params) Classifier { return &LogisticRegression{params: p} })
}

// LogisticRegression is a binary logistic-regression classifier with L1/L2
// regularization. Two solvers are available: "sgd" (stochastic gradient
// descent with the shuffleType control Amazon exposes) and "newton" (IRLS,
// standing in for scikit-learn's lbfgs/liblinear family). Regularization
// strength is 1/C, matching scikit-learn's convention.
type LogisticRegression struct {
	params
	w           []float64
	b           float64
	noIntercept bool
}

// Name implements Classifier.
func (*LogisticRegression) Name() string { return "logreg" }

// Fit implements Classifier.
func (l *LogisticRegression) Fit(x [][]float64, y []int, r *rng.RNG) error {
	n, d, err := validateFit(x, y)
	if err != nil {
		return err
	}
	l.w = make([]float64, d)
	l.b = 0
	l.noIntercept = l.params.option("fit_intercept") == "false"
	switch l.params.option("solver") {
	case "newton":
		l.fitNewton(x, y, n, d)
	default:
		l.fitSGD(x, y, n, d, r)
	}
	return nil
}

func (l *LogisticRegression) fitSGD(x [][]float64, y []int, n, d int, r *rng.RNG) {
	c := l.params.float("C")
	lambda := 1 / (c * float64(n))
	penalty := l.params.option("penalty")
	maxIter := l.params.integer("max_iter")
	tol := l.params.float("tol")
	shuffle := l.params.option("shuffle") == "true"

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Resolved outside the weight loop — the string switch ran per weight
	// per sample and was measurable across the sweep.
	l1 := penalty == "l1"
	prevLoss := math.Inf(1)
	for epoch := 0; epoch < maxIter; epoch++ {
		if shuffle {
			r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		lr := 1.0 / (1.0 + 0.1*float64(epoch))
		for _, i := range order {
			xi := x[i]
			p := linalg.Sigmoid(linalg.Dot(l.w, xi) + l.b)
			g := p - float64(y[i])
			w := l.w[:len(xi)]
			if l1 {
				for j, xj := range xi {
					grad := g*xj + lambda*sign(w[j])
					w[j] -= lr * grad
				}
			} else {
				for j, xj := range xi {
					grad := g*xj + lambda*w[j]
					w[j] -= lr * grad
				}
			}
			if !l.noIntercept {
				l.b -= lr * g
			}
		}
		loss := l.loss(x, y, lambda, penalty)
		if math.Abs(prevLoss-loss) < tol {
			break
		}
		prevLoss = loss
	}
}

// fitNewton runs iteratively reweighted least squares with an L2 ridge
// proportional to 1/C (L1 is approximated by ridge here; the solver choice
// is itself a measured control, so fidelity of the penalty under newton
// matters less than having two distinct solvers).
func (l *LogisticRegression) fitNewton(x [][]float64, y []int, n, d int) {
	c := l.params.float("C")
	lambda := 1 / c
	maxIter := l.params.integer("max_iter")
	if maxIter > 50 {
		maxIter = 50 // Newton converges in far fewer steps than SGD
	}
	tol := l.params.float("tol")

	// Work in homogeneous coordinates: theta = [w..., b].
	dim := d + 1
	theta := make([]float64, dim)
	for iter := 0; iter < maxIter; iter++ {
		grad := make([]float64, dim)
		hess := linalg.NewMatrix(dim, dim)
		for i := 0; i < n; i++ {
			z := theta[d]
			for j, xj := range x[i] {
				z += theta[j] * xj
			}
			p := linalg.Sigmoid(z)
			g := p - float64(y[i])
			wgt := p * (1 - p)
			for a := 0; a < dim; a++ {
				xa := 1.0
				if a < d {
					xa = x[i][a]
				}
				grad[a] += g * xa
				ha := hess.Row(a)
				for b := a; b < dim; b++ {
					xb := 1.0
					if b < d {
						xb = x[i][b]
					}
					ha[b] += wgt * xa * xb
				}
			}
		}
		// Symmetrize and regularize (bias not penalized).
		for a := 0; a < dim; a++ {
			for b := 0; b < a; b++ {
				hess.Set(a, b, hess.At(b, a))
			}
		}
		for j := 0; j < d; j++ {
			grad[j] += lambda * theta[j]
			hess.Set(j, j, hess.At(j, j)+lambda)
		}
		step := linalg.SolveRidge(hess, grad, 1e-8)
		maxStep := 0.0
		for a := 0; a < dim; a++ {
			theta[a] -= step[a]
			maxStep = math.Max(maxStep, math.Abs(step[a]))
		}
		if l.noIntercept {
			theta[d] = 0
		}
		if maxStep < tol {
			break
		}
	}
	copy(l.w, theta[:d])
	l.b = theta[d]
}

func (l *LogisticRegression) loss(x [][]float64, y []int, lambda float64, penalty string) float64 {
	loss := 0.0
	for i := range x {
		z := linalg.Dot(l.w, x[i]) + l.b
		if y[i] == 1 {
			loss += linalg.LogSumExp(0, -z)
		} else {
			loss += linalg.LogSumExp(0, z)
		}
	}
	loss /= float64(len(x))
	reg := 0.0
	if penalty == "l1" {
		reg = linalg.Norm1(l.w)
	} else {
		reg = 0.5 * linalg.Dot(l.w, l.w)
	}
	return loss + lambda*reg
}

// Predict implements Classifier. The fused DotBias kernel rounds exactly
// like Dot(w, row) + b, so predictions are unchanged.
func (l *LogisticRegression) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		if linalg.DotBias(l.b, l.w, row) > 0 {
			out[i] = 1
		}
	}
	return out
}

// Weights exposes the learned coefficients (used by tests and diagnostics).
func (l *LogisticRegression) Weights() ([]float64, float64) { return l.w, l.b }

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
