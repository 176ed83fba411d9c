// Package featsel implements the feature-selection step of the pipeline
// (Figure 1). The paper's platforms expose Filter methods — statistical
// scores computed independently of the classifier that rank features by
// class-discriminatory power. Microsoft offers 8 (Fisher LDA plus
// filter-based Pearson, Mutual information, Kendall, Spearman, Chi-square,
// Fisher score, Count); the local scikit-learn arm adds FClassif and
// MutualInfoClassif. All of them reduce to "score each feature, keep the
// top k", except Fisher LDA which projects onto the discriminant direction.
package featsel

import (
	"fmt"
	"math"
	"sort"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/linalg"
	"mlaasbench/internal/preprocess"
	"mlaasbench/internal/stats"
)

// Selector scores features on training data and selects a subset.
type Selector interface {
	// Name identifies the method in configs and reports.
	Name() string
	// Select returns the indices of the chosen features, ranked from most
	// to least informative, fitted on the given training data.
	Select(x [][]float64, y []int, k int) []int
}

// Method names accepted by New, mirroring Table 1.
var methodNames = []string{
	"pearson", "spearman", "kendall", "mutual", "chi", "fisher", "count", "fclassif",
}

// Names returns the filter-method names (excluding "none").
func Names() []string { return append([]string(nil), methodNames...) }

// New constructs a selector by name. "none" (or "") returns a selector that
// keeps all features in original order.
func New(name string) (Selector, error) {
	switch name {
	case "", "none":
		return passThrough{}, nil
	case "pearson":
		return filter{name: "pearson", score: func(f []float64, y []int) float64 {
			return math.Abs(stats.Pearson(f, labelsAsFloats(y)))
		}}, nil
	case "spearman":
		return filter{name: "spearman", score: func(f []float64, y []int) float64 {
			return math.Abs(stats.Spearman(f, labelsAsFloats(y)))
		}}, nil
	case "kendall":
		return filter{name: "kendall", score: func(f []float64, y []int) float64 {
			return math.Abs(stats.Kendall(f, labelsAsFloats(y)))
		}}, nil
	case "mutual":
		return filter{name: "mutual", score: func(f []float64, y []int) float64 {
			return stats.MutualInformation(f, y, 8)
		}}, nil
	case "chi":
		return filter{name: "chi", score: func(f []float64, y []int) float64 {
			return stats.ChiSquare(f, y, 8)
		}}, nil
	case "fisher":
		return filter{name: "fisher", score: stats.FisherScore}, nil
	case "fclassif":
		return filter{name: "fclassif", score: stats.AnovaF}, nil
	case "count":
		return filter{name: "count", score: func(f []float64, _ []int) float64 {
			// Count-based scoring: prefer features with more distinct
			// observed values (a proxy for information content that
			// needs no labels).
			distinct := map[float64]int{}
			for _, v := range f {
				distinct[v]++
			}
			return float64(len(distinct))
		}}, nil
	default:
		return nil, fmt.Errorf("featsel: unknown method %q", name)
	}
}

type passThrough struct{}

func (passThrough) Name() string { return "none" }

func (passThrough) Select(x [][]float64, _ []int, k int) []int {
	d := width(x)
	if k <= 0 || k > d {
		k = d
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// filter ranks features by a per-feature statistical score.
type filter struct {
	name  string
	score func(feature []float64, y []int) float64
}

func (f filter) Name() string { return f.name }

func (f filter) Select(x [][]float64, y []int, k int) []int {
	d := width(x)
	if d == 0 {
		return nil
	}
	if k <= 0 || k > d {
		k = d
	}
	type scored struct {
		idx   int
		score float64
	}
	all := make([]scored, d)
	col := make([]float64, len(x))
	for j := 0; j < d; j++ {
		for i, row := range x {
			col[i] = row[j]
		}
		s := f.score(col, y)
		if math.IsNaN(s) {
			s = 0
		}
		all[j] = scored{idx: j, score: s}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].score > all[b].score })
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].idx
	}
	return out
}

// ApplyTopFraction runs the selector keeping a fraction of the features
// (at least one) and returns the reduced dataset. It is the operation the
// pipeline performs for the FEAT control dimension.
func ApplyTopFraction(sel Selector, d *dataset.Dataset, frac float64) *dataset.Dataset {
	k := int(math.Round(frac * float64(d.D())))
	if k < 1 {
		k = 1
	}
	cols := sel.Select(d.X, d.Y, k)
	// Preserve original column order for determinism of downstream
	// parameter semantics.
	sorted := append([]int(nil), cols...)
	sort.Ints(sorted)
	return d.SelectFeatures(sorted)
}

// FisherLDA projects samples onto the Fisher discriminant direction
// w ∝ (Σ₀+Σ₁)⁻¹(μ₁-μ₀), reducing the dataset to a single maximally
// class-separating feature. This is Microsoft's "Fisher LDA" feature
// selection entry.
type FisherLDA struct {
	w []float64
}

// Name implements Selector-like naming for reports.
func (*FisherLDA) Name() string { return "fisherlda" }

// FitTransform learns the discriminant on (x, y) and returns both the
// projected training data and a projector for future rows.
func (f *FisherLDA) FitTransform(x [][]float64, y []int) [][]float64 {
	d := width(x)
	if d == 0 || len(x) == 0 {
		return nil
	}
	var rows0, rows1 [][]float64
	for i, row := range x {
		if y[i] == 0 {
			rows0 = append(rows0, row)
		} else {
			rows1 = append(rows1, row)
		}
	}
	if len(rows0) == 0 || len(rows1) == 0 {
		// Degenerate: single class; project on first axis.
		f.w = make([]float64, d)
		f.w[0] = 1
		return f.Transform(x)
	}
	m0 := linalg.ColumnMeans(linalg.FromRows(rows0))
	m1 := linalg.ColumnMeans(linalg.FromRows(rows1))
	s0 := linalg.Covariance(linalg.FromRows(rows0), m0)
	s1 := linalg.Covariance(linalg.FromRows(rows1), m1)
	sw := linalg.NewMatrix(d, d)
	for i := range sw.Data {
		sw.Data[i] = s0.Data[i] + s1.Data[i]
	}
	diff := linalg.Sub(m1, m0)
	f.w = linalg.SolveRidge(sw, diff, 1e-6)
	if linalg.Norm2(f.w) == 0 {
		f.w[0] = 1
	}
	return f.Transform(x)
}

// Transform projects rows onto the learned direction (1 output feature)
// into a new matrix the caller owns (see preprocess.Transform).
func (f *FisherLDA) Transform(x [][]float64) [][]float64 { return preprocess.Transform(f, x) }

// Width implements preprocess.RowTransform: one output feature.
func (*FisherLDA) Width(int) int { return 1 }

// TransformRow implements preprocess.RowTransform: the row's projection,
// one ascending-index Dot.
func (f *FisherLDA) TransformRow(dst, src []float64) { dst[0] = linalg.Dot(f.w, src) }

func labelsAsFloats(y []int) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = float64(v)
	}
	return out
}

func width(x [][]float64) int {
	if len(x) == 0 {
		return 0
	}
	return len(x[0])
}
