package classifiers

import (
	"math"

	"mlaasbench/internal/rng"
)

func init() {
	register(Info{
		Name:   "naivebayes",
		Label:  "NB",
		Linear: true,
		Params: []ParamSpec{
			{Name: "prior", Kind: Categorical, Options: []any{"empirical", "uniform"}},
			{Name: "lambda", Kind: Numeric, Default: 1e-9, Min: 1e-12, Max: 1.0},
		},
	}, func(p params) Classifier { return &NaiveBayes{params: p} })
}

// NaiveBayes is Gaussian naive Bayes: per-class, per-feature normal
// likelihoods with either empirical or uniform class priors. The lambda
// parameter adds variance smoothing (PredictionIO's NB lambda control).
type NaiveBayes struct {
	params
	logPri [2]float64
	mean   [2][]float64
	vari   [2][]float64
	// logNorm[c][j] = log(2π·vari[c][j]) and twoVar[c][j] = 2·vari[c][j]:
	// the two per-(class, feature) subexpressions of the Gaussian
	// log-likelihood, evaluated once by derive instead of per predicted row.
	// Derived from vari, never serialized.
	logNorm [2][]float64
	twoVar  [2][]float64
}

// Name implements Classifier.
func (*NaiveBayes) Name() string { return "naivebayes" }

// Fit implements Classifier.
func (nb *NaiveBayes) Fit(x [][]float64, y []int, _ *rng.RNG) error {
	n, d, err := validateFit(x, y)
	if err != nil {
		return err
	}
	var count [2]float64
	for c := 0; c < 2; c++ {
		nb.mean[c] = make([]float64, d)
		nb.vari[c] = make([]float64, d)
	}
	for i, row := range x {
		c := y[i]
		count[c]++
		for j, v := range row {
			nb.mean[c][j] += v
		}
	}
	for c := 0; c < 2; c++ {
		if count[c] == 0 {
			continue
		}
		for j := range nb.mean[c] {
			nb.mean[c][j] /= count[c]
		}
	}
	// Global variance scale for smoothing, as scikit-learn does.
	globalVar := 0.0
	for i, row := range x {
		c := y[i]
		for j, v := range row {
			dv := v - nb.mean[c][j]
			nb.vari[c][j] += dv * dv
		}
	}
	for c := 0; c < 2; c++ {
		if count[c] == 0 {
			continue
		}
		for j := range nb.vari[c] {
			nb.vari[c][j] /= count[c]
			globalVar += nb.vari[c][j]
		}
	}
	globalVar /= float64(2 * d)
	lambda := nb.params.float("lambda")
	eps := lambda*globalVar + 1e-12
	for c := 0; c < 2; c++ {
		for j := range nb.vari[c] {
			nb.vari[c][j] += eps
		}
	}

	switch nb.params.option("prior") {
	case "uniform":
		nb.logPri[0], nb.logPri[1] = math.Log(0.5), math.Log(0.5)
	default:
		for c := 0; c < 2; c++ {
			p := count[c] / float64(n)
			if p == 0 {
				p = 1e-12
			}
			nb.logPri[c] = math.Log(p)
		}
	}
	// Degenerate single-class training: force the prior to dominate.
	for c := 0; c < 2; c++ {
		if count[c] == 0 {
			nb.logPri[c] = math.Inf(-1)
			for j := range nb.vari[c] {
				nb.vari[c][j] = 1
			}
		}
	}
	nb.derive()
	return nil
}

// derive fills logNorm and twoVar from vari; Fit and the MLMF decoder call
// it once the variances are final.
func (nb *NaiveBayes) derive() {
	for c := 0; c < 2; c++ {
		nb.logNorm[c] = make([]float64, len(nb.vari[c]))
		nb.twoVar[c] = make([]float64, len(nb.vari[c]))
		for j, variance := range nb.vari[c] {
			nb.logNorm[c][j] = math.Log(2 * math.Pi * variance)
			nb.twoVar[c][j] = 2 * variance
		}
	}
}

// Predict implements Classifier.
func (nb *NaiveBayes) Predict(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		if nb.logPosterior(row, 1) > nb.logPosterior(row, 0) {
			out[i] = 1
		}
	}
	return out
}

func (nb *NaiveBayes) logPosterior(row []float64, c int) float64 {
	lp := nb.logPri[c]
	mean, logNorm, twoVar := nb.mean[c], nb.logNorm[c], nb.twoVar[c]
	for j, v := range row {
		dv := v - mean[j]
		lp += -0.5*logNorm[j] - dv*dv/twoVar[j]
	}
	return lp
}
