package classifiers

import (
	"math"
	"sort"

	"mlaasbench/internal/linalg"
)

// Scorer is the optional interface for classifiers that can output a
// real-valued prediction score (larger = more confident in class 1). The
// paper notes that several production platforms hide scores (§3.2), which
// ruled out AUC there; every classifier in this substrate *can* score, and
// the platform layer decides whether to expose it.
type Scorer interface {
	// PredictScore returns one score per row; thresholding at the model's
	// decision point reproduces Predict.
	PredictScore(x [][]float64) []float64
}

// PredictScore implements Scorer: the class-1 probability.
func (l *LogisticRegression) PredictScore(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = linalg.Sigmoid(linalg.Dot(l.w, row) + l.b)
	}
	return out
}

// PredictScore implements Scorer: the log-posterior margin.
func (nb *NaiveBayes) PredictScore(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = nb.logPosterior(row, 1) - nb.logPosterior(row, 0)
	}
	return out
}

// PredictScore implements Scorer: the signed margin.
func (s *LinearSVM) PredictScore(x [][]float64) []float64 {
	return linearScores(s.w, s.b, x)
}

// PredictScore implements Scorer: the signed discriminant value.
func (l *LDA) PredictScore(x [][]float64) []float64 {
	return linearScores(l.w, l.bias, x)
}

// PredictScore implements Scorer: the signed margin of the averaged model.
func (a *AveragedPerceptron) PredictScore(x [][]float64) []float64 {
	return linearScores(a.w, a.b, x)
}

// PredictScore implements Scorer: the committee-average margin.
func (m *BayesPointMachine) PredictScore(x [][]float64) []float64 {
	return linearScores(m.w, m.b, x)
}

func linearScores(w []float64, b float64, x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = linalg.Dot(w, row) + b
	}
	return out
}

// PredictScore implements Scorer: the (weighted) neighbour vote fraction.
func (k *KNN) PredictScore(x [][]float64) []float64 {
	kk, p, distWeighted := k.query()
	out := make([]float64, len(x))
	type nd struct {
		dist float64
		y    int
	}
	for qi, q := range x {
		nds := make([]nd, len(k.x))
		for i, row := range k.x {
			var dist float64
			if p == 2 {
				dist = linalg.SquaredEuclidean(row, q)
			} else {
				dist = linalg.MinkowskiDistance(row, q, p)
			}
			nds[i] = nd{dist: dist, y: k.y[i]}
		}
		sort.Slice(nds, func(a, b int) bool { return nds[a].dist < nds[b].dist })
		var votes [2]float64
		for i := 0; i < kk; i++ {
			wgt := 1.0
			if distWeighted {
				wgt = 1 / (nds[i].dist + 1e-9)
			}
			votes[nds[i].y] += wgt
		}
		total := votes[0] + votes[1]
		if total > 0 {
			out[qi] = votes[1]/total - 0.5
		}
	}
	return out
}

// PredictScore implements Scorer: the leaf's class-1 probability, centered.
func (t *DecisionTree) PredictScore(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = t.root.predict(row) - 0.5
	}
	return out
}

// PredictScore implements Scorer: the ensemble's mean leaf probability,
// centered.
func (b *Bagging) PredictScore(x [][]float64) []float64 {
	return ensembleScores(b.trees, x)
}

// PredictScore implements Scorer: the forest's mean leaf probability,
// centered.
func (f *RandomForest) PredictScore(x [][]float64) []float64 {
	return ensembleScores(f.trees, x)
}

func ensembleScores(trees []*treeNode, x [][]float64) []float64 {
	out := make([]float64, len(x))
	if len(trees) == 0 {
		return out
	}
	for i, row := range x {
		sum := 0.0
		for _, t := range trees {
			sum += t.predict(row)
		}
		out[i] = sum/float64(len(trees)) - 0.5
	}
	return out
}

// PredictScore implements Scorer: the boosted additive score (log-odds).
func (b *BoostedTrees) PredictScore(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = b.score(row)
	}
	return out
}

// PredictScore implements Scorer: the DAG-ensemble vote fraction, centered.
func (j *DecisionJungle) PredictScore(x [][]float64) []float64 {
	out := make([]float64, len(x))
	if len(j.dags) == 0 {
		return out
	}
	for i, row := range x {
		sum := 0.0
		for _, dag := range j.dags {
			sum += dag.predict(row)
		}
		out[i] = sum/float64(len(j.dags)) - 0.5
	}
	return out
}

// PredictScore implements Scorer: the pre-sigmoid network output.
func (m *MLP) PredictScore(x [][]float64) []float64 {
	// Reuse Predict's forward pass but keep the raw logit.
	hidden := len(m.w1)
	actKind := actKindOf(m.params.option("activation"))
	out := make([]float64, len(x))
	for i, row := range x {
		z2 := m.b2
		for h := 0; h < hidden; h++ {
			z := linalg.Dot(m.w1[h], row) + m.b1[h]
			var a float64
			switch actKind {
			case actTanh:
				a = math.Tanh(z)
			case actLogistic:
				a = linalg.Sigmoid(z)
			default:
				if z > 0 {
					a = z
				}
			}
			z2 += m.w2[h] * a
		}
		out[i] = z2
	}
	return out
}
