package linalg

import "math"

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// Norm1 returns the L1 norm of v.
func Norm1(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// AXPY computes y += a·x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i, xi := range x {
		y[i] += a * xi
	}
}

// Scale multiplies v by a in place.
func Scale(a float64, v []float64) {
	for i := range v {
		v[i] *= a
	}
}

// Sub returns a-b as a new vector.
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("linalg: Sub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Add returns a+b as a new vector.
func Add(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("linalg: Add length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v (0 for len < 2).
func Variance(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	m := Mean(v)
	s := 0.0
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Std returns the population standard deviation of v.
func Std(v []float64) float64 { return math.Sqrt(Variance(v)) }

// MinkowskiDistance returns the Lp distance between two vectors. p must be
// >= 1; p = math.Inf(1) yields the Chebyshev distance.
func MinkowskiDistance(a, b []float64, p float64) float64 {
	if len(a) != len(b) {
		panic("linalg: distance length mismatch")
	}
	if math.IsInf(p, 1) {
		max := 0.0
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > max {
				max = d
			}
		}
		return max
	}
	s := 0.0
	if p == 1 {
		// math.Pow(x, 1) is x for every x, so the Manhattan distance is the
		// plain sum, bit for bit.
		for i := range a {
			s += math.Abs(a[i] - b[i])
		}
		return s
	}
	for i := range a {
		s += math.Pow(math.Abs(a[i]-b[i]), p)
	}
	return math.Pow(s, 1/p)
}

// SquaredEuclidean returns the squared L2 distance, avoiding the sqrt for
// nearest-neighbour ranking.
func SquaredEuclidean(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Covariance returns the (population) covariance matrix of the rows of x
// around the provided mean vector.
func Covariance(x *Matrix, mean []float64) *Matrix {
	d := x.Cols
	cov := NewMatrix(d, d)
	if x.Rows == 0 {
		return cov
	}
	// Center each row once into a scratch buffer, then rank-1 update via
	// AXPY: identical subtract/multiply/accumulate order to the historical
	// per-element form (including its zero-deviation row skip), but the
	// O(d²) recomputation of row[b]-mean[b] drops to O(d) per row.
	centered := make([]float64, d)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			centered[j] = v - mean[j]
		}
		for a, da := range centered {
			if da == 0 {
				continue
			}
			AXPY(da, centered, cov.Row(a))
		}
	}
	inv := 1 / float64(x.Rows)
	for i := range cov.Data {
		cov.Data[i] *= inv
	}
	return cov
}

// ColumnMeans returns the per-column means of x.
func ColumnMeans(x *Matrix) []float64 {
	means := make([]float64, x.Cols)
	if x.Rows == 0 {
		return means
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	inv := 1 / float64(x.Rows)
	for j := range means {
		means[j] *= inv
	}
	return means
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Sigmoid returns the logistic function 1/(1+e^-x), numerically stable for
// large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// LogSumExp returns log(exp(a)+exp(b)) without overflow.
func LogSumExp(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if math.IsInf(a, -1) {
		return a
	}
	return a + math.Log1p(math.Exp(b-a))
}
