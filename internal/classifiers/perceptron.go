package classifiers

import (
	"mlaasbench/internal/linalg"
	"mlaasbench/internal/rng"
)

func init() {
	register(Info{
		Name:   "perceptron",
		Label:  "AP",
		Linear: true,
		Params: []ParamSpec{
			{Name: "learning_rate", Kind: Numeric, Default: 1.0, Min: 1e-4, Max: 100},
			{Name: "max_iter", Kind: Numeric, Default: 10, Min: 1, Max: 200, IsInt: true},
		},
	}, func(p params) Classifier { return &AveragedPerceptron{params: p} })

	register(Info{
		Name:   "bpm",
		Label:  "BPM",
		Linear: true,
		Params: []ParamSpec{
			{Name: "n_iter", Kind: Numeric, Default: 30, Min: 1, Max: 200, IsInt: true},
		},
	}, func(p params) Classifier { return &BayesPointMachine{params: p} })
}

// AveragedPerceptron is the large-margin averaged perceptron of Freund &
// Schapire (1999) — Microsoft's "Averaged Perceptron" entry. The returned
// model is the running average of all intermediate weight vectors, which
// approximates the voted perceptron's margin behaviour at prediction cost
// of a single linear model.
type AveragedPerceptron struct {
	params
	w []float64
	b float64
}

// Name implements Classifier.
func (*AveragedPerceptron) Name() string { return "perceptron" }

// Fit implements Classifier.
func (a *AveragedPerceptron) Fit(x [][]float64, y []int, r *rng.RNG) error {
	n, d, err := validateFit(x, y)
	if err != nil {
		return err
	}
	lr := a.params.float("learning_rate")
	epochs := a.params.integer("max_iter")
	ys := signedLabels(y)

	w := make([]float64, d)
	b := 0.0
	sumW := make([]float64, d)
	sumB := 0.0
	updates := 1.0
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < epochs; epoch++ {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			if ys[i]*(linalg.Dot(w, x[i])+b) <= 0 {
				linalg.AXPY(lr*ys[i], x[i], w)
				b += lr * ys[i]
			}
			linalg.AXPY(1, w, sumW)
			sumB += b
			updates++
		}
	}
	linalg.Scale(1/updates, sumW)
	a.w = sumW
	a.b = sumB / updates
	return nil
}

// Predict implements Classifier.
func (a *AveragedPerceptron) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		if linalg.Dot(a.w, row)+a.b > 0 {
			out[i] = 1
		}
	}
	return out
}

// BayesPointMachine approximates the Bayes point — the centre of mass of
// version space (Herbrich et al. 2001), Microsoft's "Bayes Point Machine".
// We approximate it the way the original paper suggests for practice:
// train an ensemble of perceptrons on randomly permuted data and average
// the normalized weight vectors.
type BayesPointMachine struct {
	params
	w []float64
	b float64
}

// Name implements Classifier.
func (*BayesPointMachine) Name() string { return "bpm" }

// Fit implements Classifier.
func (m *BayesPointMachine) Fit(x [][]float64, y []int, r *rng.RNG) error {
	n, d, err := validateFit(x, y)
	if err != nil {
		return err
	}
	iters := m.params.integer("n_iter")
	if iters < 1 {
		iters = 1
	}
	const committee = 8
	ys := signedLabels(y)

	m.w = make([]float64, d)
	m.b = 0
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for c := 0; c < committee; c++ {
		w := make([]float64, d)
		b := 0.0
		for epoch := 0; epoch < iters; epoch++ {
			r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			mistakes := 0
			for _, i := range order {
				if ys[i]*(linalg.Dot(w, x[i])+b) <= 0 {
					linalg.AXPY(ys[i], x[i], w)
					b += ys[i]
					mistakes++
				}
			}
			if mistakes == 0 {
				break
			}
		}
		// Normalize each committee member so no single run dominates.
		norm := linalg.Norm2(w)
		if norm > 0 {
			linalg.AXPY(1/norm, w, m.w)
			m.b += b / norm
		}
	}
	linalg.Scale(1.0/committee, m.w)
	m.b /= committee
	return nil
}

// Predict implements Classifier.
func (m *BayesPointMachine) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		if linalg.Dot(m.w, row)+m.b > 0 {
			out[i] = 1
		}
	}
	return out
}
