// Package preprocess implements the data-transformation step of the ML
// pipeline (Figure 1): feature scalers and normalizers. In the paper only
// Microsoft (and the local scikit-learn arm) expose this control; the scaler
// set below mirrors Table 1's local-library FEAT list (GaussianNorm /
// StandardScaler, MinMaxScaler, MaxAbsScaler, L1/L2 normalization) plus the
// quantile binning Amazon applies server-side.
//
// Every scaler follows the fit-on-train / apply-to-both discipline: Fit
// learns statistics from training rows only, Transform applies them to any
// rows, so no information leaks from the test set.
package preprocess

import (
	"fmt"
	"math"
	"sort"
)

// RowTransform is a fitted row-local transformation, the one kernel behind
// Transform and TransformInto. Every scaler is one, and so is each of the
// pipeline's feature selections.
type RowTransform interface {
	// Width is the transformed length of an input row of length d.
	Width(d int) int
	// TransformRow writes every element of dst, of length Width(len(src)),
	// from src, which it only reads; it retains neither.
	TransformRow(dst, src []float64)
}

// Scaler learns a feature-wise transformation from training data and applies
// it row by row: Transform(s, x) returns a matrix the caller owns,
// TransformInto(sc, s, x) rows owned by the scratch sc.
type Scaler interface {
	// Name identifies the scaler in configs and reports.
	Name() string
	// Fit learns the transformation statistics from training rows.
	Fit(x [][]float64)
	RowTransform
}

// New constructs a scaler by name. Valid names: "identity", "standard",
// "minmax", "maxabs", "l1norm", "l2norm", "binning".
func New(name string) (Scaler, error) {
	switch name {
	case "", "identity":
		return &Identity{}, nil
	case "standard", "gaussian":
		return &Standard{}, nil
	case "minmax":
		return &MinMax{}, nil
	case "maxabs":
		return &MaxAbs{}, nil
	case "l1norm":
		return &RowNorm{P: 1}, nil
	case "l2norm":
		return &RowNorm{P: 2}, nil
	case "binning":
		return &QuantileBinning{Bins: 10}, nil
	default:
		return nil, fmt.Errorf("preprocess: unknown scaler %q", name)
	}
}

// Names lists the constructible scaler names (excluding identity).
func Names() []string {
	return []string{"standard", "minmax", "maxabs", "l1norm", "l2norm"}
}

// sameWidth is embedded by the scalers that keep a row's length.
type sameWidth struct{}

// Width implements RowTransform.
func (sameWidth) Width(d int) int { return d }

// Identity passes features through unchanged (the baseline configuration).
type Identity struct{ sameWidth }

// Name implements Scaler.
func (*Identity) Name() string { return "identity" }

// Fit implements Scaler.
func (*Identity) Fit([][]float64) {}

// TransformRow implements RowTransform.
func (*Identity) TransformRow(dst, src []float64) { copy(dst, src) }

// Standard centers features to zero mean and unit variance (scikit-learn's
// StandardScaler / the paper's GaussianNorm).
type Standard struct {
	sameWidth
	mean, std []float64
}

// Name implements Scaler.
func (*Standard) Name() string { return "standard" }

// Fit implements Scaler.
func (s *Standard) Fit(x [][]float64) {
	d := width(x)
	s.mean = make([]float64, d)
	s.std = make([]float64, d)
	if len(x) == 0 {
		return
	}
	for _, row := range x {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j, v := range row {
			dv := v - s.mean[j]
			s.std[j] += dv * dv
		}
	}
	for j := range s.std {
		s.std[j] = math.Sqrt(s.std[j] / float64(len(x)))
		if s.std[j] == 0 {
			s.std[j] = 1
		}
	}
}

// TransformRow implements RowTransform.
func (s *Standard) TransformRow(dst, src []float64) {
	for j, v := range src {
		dst[j] = (v - s.mean[j]) / s.std[j]
	}
}

// MinMax rescales each feature to [0, 1] using the training min and max.
type MinMax struct {
	sameWidth
	min, span []float64
}

// Name implements Scaler.
func (*MinMax) Name() string { return "minmax" }

// Fit implements Scaler.
func (m *MinMax) Fit(x [][]float64) {
	d := width(x)
	m.min = make([]float64, d)
	m.span = make([]float64, d)
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, row := range x {
			lo = math.Min(lo, row[j])
			hi = math.Max(hi, row[j])
		}
		if len(x) == 0 {
			lo, hi = 0, 1
		}
		m.min[j] = lo
		m.span[j] = hi - lo
		if m.span[j] == 0 {
			m.span[j] = 1
		}
	}
}

// TransformRow implements RowTransform.
func (m *MinMax) TransformRow(dst, src []float64) {
	for j, v := range src {
		dst[j] = (v - m.min[j]) / m.span[j]
	}
}

// MaxAbs divides each feature by its training maximum absolute value,
// preserving sparsity and sign.
type MaxAbs struct {
	sameWidth
	scale []float64
}

// Name implements Scaler.
func (*MaxAbs) Name() string { return "maxabs" }

// Fit implements Scaler.
func (m *MaxAbs) Fit(x [][]float64) {
	d := width(x)
	m.scale = make([]float64, d)
	for j := 0; j < d; j++ {
		maxAbs := 0.0
		for _, row := range x {
			maxAbs = math.Max(maxAbs, math.Abs(row[j]))
		}
		if maxAbs == 0 {
			maxAbs = 1
		}
		m.scale[j] = maxAbs
	}
}

// TransformRow implements RowTransform.
func (m *MaxAbs) TransformRow(dst, src []float64) {
	for j, v := range src {
		dst[j] = v / m.scale[j]
	}
}

// RowNorm normalizes each sample vector to unit Lp norm (p ∈ {1, 2}). It is
// stateless across Fit.
type RowNorm struct {
	sameWidth
	P int
}

// Name implements Scaler.
func (r *RowNorm) Name() string {
	if r.P == 1 {
		return "l1norm"
	}
	return "l2norm"
}

// Fit implements Scaler.
func (*RowNorm) Fit([][]float64) {}

// TransformRow implements RowTransform. A zero row (every element ±0, so
// each v / 1 == v exactly) passes through unchanged.
func (r *RowNorm) TransformRow(dst, src []float64) {
	norm := 0.0
	for _, v := range src {
		if r.P == 1 {
			norm += math.Abs(v)
		} else {
			norm += v * v
		}
	}
	if r.P != 1 {
		norm = math.Sqrt(norm)
	}
	if norm == 0 {
		norm = 1
	}
	for j, v := range src {
		dst[j] = v / norm
	}
}

// QuantileBinning replaces each feature with the index of its training
// quantile bin. Amazon ML applies this server-side to give Logistic
// Regression non-linear expressive power — the behaviour §6.2 detects on
// the CIRCLE dataset (Figure 13).
type QuantileBinning struct {
	sameWidth
	Bins  int
	edges [][]float64
}

// Name implements Scaler.
func (*QuantileBinning) Name() string { return "binning" }

// Fit implements Scaler.
func (q *QuantileBinning) Fit(x [][]float64) {
	if q.Bins < 2 {
		q.Bins = 10
	}
	d := width(x)
	q.edges = make([][]float64, d)
	for j := 0; j < d; j++ {
		col := make([]float64, len(x))
		for i, row := range x {
			col[i] = row[j]
		}
		sort.Float64s(col)
		edges := make([]float64, 0, q.Bins-1)
		for b := 1; b < q.Bins; b++ {
			if len(col) == 0 {
				break
			}
			pos := float64(b) / float64(q.Bins) * float64(len(col)-1)
			edges = append(edges, col[int(pos)])
		}
		q.edges[j] = edges
	}
}

// TransformRow implements RowTransform. Features past the fitted width pass
// through.
func (q *QuantileBinning) TransformRow(dst, src []float64) {
	copy(dst, src)
	for j := range min(len(src), len(q.edges)) {
		dst[j] = float64(sort.SearchFloat64s(q.edges[j], src[j]))
	}
}

// OneHotBinning quantile-bins each feature and expands it into per-bin
// indicator features, so a downstream linear model learns an independent
// weight per bin — a piecewise-constant additive model. This is Amazon ML's
// documented "quantile binning" recipe and the mechanism behind the
// non-linear Logistic Regression boundary the paper observes on CIRCLE
// (Figure 13). It fits exactly as the embedded QuantileBinning does.
type OneHotBinning struct{ QuantileBinning }

// Name implements Scaler.
func (*OneHotBinning) Name() string { return "onehotbin" }

// Width implements RowTransform: #fitted features × Bins, whatever d.
func (o *OneHotBinning) Width(int) int { return len(o.edges) * o.Bins }

// TransformRow implements RowTransform.
func (o *OneHotBinning) TransformRow(dst, src []float64) {
	clear(dst)
	for j := range min(len(src), len(o.edges)) {
		dst[j*o.Bins+sort.SearchFloat64s(o.edges[j], src[j])] = 1
	}
}

func width(x [][]float64) int {
	if len(x) == 0 {
		return 0
	}
	return len(x[0])
}

// Transform returns t applied to every row of x as a new matrix the caller
// owns: one flat backing array (two allocations whatever the row count),
// each row capped at its own length so appending to one cannot reach the
// next.
func Transform(t RowTransform, x [][]float64) [][]float64 {
	var s Scratch
	return TransformInto(&s, t, x)
}

// TransformInto is Transform writing into s: the rows it returns are carved
// from s, grown as needed, and valid until s is next used.
func TransformInto(s *Scratch, t RowTransform, x [][]float64) [][]float64 {
	total := 0
	for _, row := range x {
		total += t.Width(len(row))
	}
	if cap(s.flat) < total {
		s.flat = make([]float64, total)
	}
	if s.rows == nil || cap(s.rows) < len(x) {
		s.rows = make([][]float64, len(x))
	}
	flat, out := s.flat[:total], s.rows[:len(x)]
	for i, row := range x {
		w := t.Width(len(row))
		out[i] = flat[:w:w]
		flat = flat[w:]
		t.TransformRow(out[i], row)
	}
	return out
}

// Scratch is reusable row storage for TransformInto: one flat backing array
// plus the row headers carved from it. The zero value is ready to use.
type Scratch struct {
	flat []float64
	rows [][]float64
}

// Bytes is the memory s holds.
func (s *Scratch) Bytes() int { return 8*cap(s.flat) + 24*cap(s.rows) }
