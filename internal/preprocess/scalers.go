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

// Scaler learns a feature-wise transformation from training data and applies
// it to feature vectors.
type Scaler interface {
	// Name identifies the scaler in configs and reports.
	Name() string
	// Fit learns the transformation statistics from training rows.
	Fit(x [][]float64)
	// Transform returns transformed copies of the rows; inputs are not
	// modified.
	Transform(x [][]float64) [][]float64
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

// Identity passes features through unchanged (the baseline configuration).
type Identity struct{}

// Name implements Scaler.
func (*Identity) Name() string { return "identity" }

// Fit implements Scaler.
func (*Identity) Fit([][]float64) {}

// Transform implements Scaler.
func (*Identity) Transform(x [][]float64) [][]float64 { return copyRows(x) }

// Standard centers features to zero mean and unit variance (scikit-learn's
// StandardScaler / the paper's GaussianNorm).
type Standard struct {
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

// Transform implements Scaler.
func (s *Standard) Transform(x [][]float64) [][]float64 {
	out := copyRows(x)
	for _, row := range out {
		for j := range row {
			row[j] = (row[j] - s.mean[j]) / s.std[j]
		}
	}
	return out
}

// MinMax rescales each feature to [0, 1] using the training min and max.
type MinMax struct {
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

// Transform implements Scaler.
func (m *MinMax) Transform(x [][]float64) [][]float64 {
	out := copyRows(x)
	for _, row := range out {
		for j := range row {
			row[j] = (row[j] - m.min[j]) / m.span[j]
		}
	}
	return out
}

// MaxAbs divides each feature by its training maximum absolute value,
// preserving sparsity and sign.
type MaxAbs struct {
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

// Transform implements Scaler.
func (m *MaxAbs) Transform(x [][]float64) [][]float64 {
	out := copyRows(x)
	for _, row := range out {
		for j := range row {
			row[j] /= m.scale[j]
		}
	}
	return out
}

// RowNorm normalizes each sample vector to unit Lp norm (p ∈ {1, 2}). It is
// stateless across Fit.
type RowNorm struct {
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

// Transform implements Scaler.
func (r *RowNorm) Transform(x [][]float64) [][]float64 {
	out := copyRows(x)
	for _, row := range out {
		norm := 0.0
		for _, v := range row {
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
			continue
		}
		for j := range row {
			row[j] /= norm
		}
	}
	return out
}

// QuantileBinning replaces each feature with the index of its training
// quantile bin. Amazon ML applies this server-side to give Logistic
// Regression non-linear expressive power — the behaviour §6.2 detects on
// the CIRCLE dataset (Figure 13).
type QuantileBinning struct {
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

// Transform implements Scaler.
func (q *QuantileBinning) Transform(x [][]float64) [][]float64 {
	out := copyRows(x)
	for _, row := range out {
		for j := range row {
			if j >= len(q.edges) {
				continue
			}
			bin := sort.SearchFloat64s(q.edges[j], row[j])
			row[j] = float64(bin)
		}
	}
	return out
}

// OneHotBinning quantile-bins each feature and expands it into per-bin
// indicator features, so a downstream linear model learns an independent
// weight per bin — a piecewise-constant additive model. This is Amazon ML's
// documented "quantile binning" recipe and the mechanism behind the
// non-linear Logistic Regression boundary the paper observes on CIRCLE
// (Figure 13).
type OneHotBinning struct {
	Bins  int
	edges [][]float64
}

// Name implements Scaler.
func (*OneHotBinning) Name() string { return "onehotbin" }

// Fit implements Scaler.
func (o *OneHotBinning) Fit(x [][]float64) {
	if o.Bins < 2 {
		o.Bins = 10
	}
	q := &QuantileBinning{Bins: o.Bins}
	q.Fit(x)
	o.edges = q.edges
}

// Transform implements Scaler. Output width is #features × Bins.
func (o *OneHotBinning) Transform(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	d := len(o.edges)
	for i, row := range x {
		wide := make([]float64, d*o.Bins)
		for j := 0; j < d && j < len(row); j++ {
			bin := sort.SearchFloat64s(o.edges[j], row[j])
			wide[j*o.Bins+bin] = 1
		}
		out[i] = wide
	}
	return out
}

func width(x [][]float64) int {
	if len(x) == 0 {
		return 0
	}
	return len(x[0])
}

// copyRows deep-copies x into one flat backing array (two allocations
// whatever the row count; a scaler runs it on every predict). Each row is
// capped at its length, so appending to one cannot reach the next.
func copyRows(x [][]float64) [][]float64 {
	total := 0
	for _, row := range x {
		total += len(row)
	}
	flat := make([]float64, total)
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = flat[:len(row):len(row)]
		copy(out[i], row)
		flat = flat[len(row):]
	}
	return out
}
