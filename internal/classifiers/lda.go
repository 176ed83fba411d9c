package classifiers

import (
	"math"

	"mlaasbench/internal/linalg"
	"mlaasbench/internal/rng"
)

func init() {
	register(Info{
		Name:   "lda",
		Label:  "LDA",
		Linear: true,
		Params: []ParamSpec{
			{Name: "solver", Kind: Categorical, Options: []any{"lsqr", "eigen"}},
			{Name: "shrinkage", Kind: Categorical, Options: []any{"none", "auto"}},
		},
	}, func(p params) Classifier { return &LDA{params: p} })
}

// LDA is linear discriminant analysis with a shared (pooled) covariance:
// the Bayes-optimal linear rule under homoscedastic Gaussian classes.
// The "lsqr" solver solves Σw = (μ₁-μ₀) directly; "eigen" goes through the
// eigendecomposition of the pooled covariance (useful with shrinkage).
// Shrinkage "auto" blends the covariance toward a scaled identity, the
// Ledoit-Wolf-style regularization scikit-learn offers.
type LDA struct {
	params
	w    []float64
	bias float64
}

// Name implements Classifier.
func (*LDA) Name() string { return "lda" }

// Fit implements Classifier.
func (l *LDA) Fit(x [][]float64, y []int, _ *rng.RNG) error {
	n, d, err := validateFit(x, y)
	if err != nil {
		return err
	}
	var rows [2][][]float64
	for i, row := range x {
		rows[y[i]] = append(rows[y[i]], row)
	}
	if len(rows[0]) == 0 || len(rows[1]) == 0 {
		// Single-class training: constant prediction via bias sign.
		l.w = make([]float64, d)
		if majorityLabel(y) == 1 {
			l.bias = 1
		} else {
			l.bias = -1
		}
		return nil
	}
	x0, x1 := linalg.FromRows(rows[0]), linalg.FromRows(rows[1])
	m0, m1 := linalg.ColumnMeans(x0), linalg.ColumnMeans(x1)
	c0, c1 := linalg.Covariance(x0, m0), linalg.Covariance(x1, m1)
	pooled := linalg.NewMatrix(d, d)
	w0 := float64(len(rows[0])) / float64(n)
	w1 := float64(len(rows[1])) / float64(n)
	for i := range pooled.Data {
		pooled.Data[i] = w0*c0.Data[i] + w1*c1.Data[i]
	}

	if l.params.option("shrinkage") == "auto" {
		// Shrink toward tr(Σ)/d · I with a fixed blend.
		trace := 0.0
		for i := 0; i < d; i++ {
			trace += pooled.At(i, i)
		}
		mu := trace / float64(d)
		const alpha = 0.3
		for i := 0; i < d; i++ {
			for j := 0; j < d; j++ {
				v := (1 - alpha) * pooled.At(i, j)
				if i == j {
					v += alpha * mu
				}
				pooled.Set(i, j, v)
			}
		}
	}

	diff := linalg.Sub(m1, m0)
	switch l.params.option("solver") {
	case "eigen":
		l.w = l.solveEigen(pooled, diff)
	default:
		l.w = linalg.SolveRidge(pooled, diff, 1e-9)
	}
	if linalg.Norm2(l.w) == 0 {
		l.w[0] = 1
	}
	// Threshold at the midpoint of projected class means, with the
	// log-prior offset.
	mid := (linalg.Dot(l.w, m0) + linalg.Dot(l.w, m1)) / 2
	prior := math.Log(float64(len(rows[1])) / float64(len(rows[0])))
	l.bias = -mid + prior
	return nil
}

// solveEigen inverts the pooled covariance through its eigendecomposition,
// flooring tiny eigenvalues for stability.
func (l *LDA) solveEigen(sigma *linalg.Matrix, diff []float64) []float64 {
	vals, vecs, err := linalg.JacobiEigen(sigma)
	if err != nil {
		return linalg.SolveRidge(sigma, diff, 1e-9)
	}
	d := len(diff)
	w := make([]float64, d)
	floor := 1e-9
	if len(vals) > 0 && vals[0] > 0 {
		floor = vals[0] * 1e-9
	}
	vk := make([]float64, vecs.Rows) // one column buffer reused across k
	for k := 0; k < d; k++ {
		ev := vals[k]
		if ev < floor {
			ev = floor
		}
		linalg.ColInto(vk, vecs, k)
		coef := linalg.Dot(vk, diff) / ev
		linalg.AXPY(coef, vk, w)
	}
	return w
}

// Predict implements Classifier. The fused DotBias kernel rounds exactly
// like Dot(w, row) + bias, so predictions are unchanged.
func (l *LDA) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		if linalg.DotBias(l.bias, l.w, row) > 0 {
			out[i] = 1
		}
	}
	return out
}
