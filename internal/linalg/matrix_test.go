package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"mlaasbench/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatal("Set failed")
	}
	col := m.Col(1)
	if col[0] != 2 || col[1] != 5 {
		t.Fatalf("Col(1) = %v", col)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at %d,%d", i, j)
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	r := rng.New(1)
	a := NewMatrix(5, 5)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	c := a.Mul(Identity(5))
	for i := range a.Data {
		if !almostEq(a.Data[i], c.Data[i], 1e-12) {
			t.Fatal("A·I != A")
		}
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 0, 2}, {0, 3, 0}})
	got := m.MulVec([]float64{1, 2, 3})
	if got[0] != 7 || got[1] != 6 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-10) || !almostEq(x[1], 3, 1e-10) {
		t.Fatalf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveRidgeFallsBack(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	x := SolveRidge(a, []float64{1, 2}, 0)
	// Must return a finite vector of the right length, not panic.
	if len(x) != 2 || math.IsNaN(x[0]) || math.IsNaN(x[1]) {
		t.Fatalf("SolveRidge = %v", x)
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(8)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		a.AddScaledIdentity(float64(n)) // keep well conditioned
		want := make([]float64, n)
		for i := range want {
			want[i] = r.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range want {
			if !almostEq(got[i], want[i], 1e-8) {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestCholesky(t *testing.T) {
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	rec := l.Mul(l.T())
	for i := range a.Data {
		if !almostEq(a.Data[i], rec.Data[i], 1e-10) {
			t.Fatalf("L·Lᵀ != A: %v vs %v", rec.Data, a.Data)
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected not-positive-definite error")
	}
}

func TestJacobiEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 1}})
	vals, vecs, err := JacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 3, 1e-10) || !almostEq(vals[1], 1, 1e-10) {
		t.Fatalf("eigenvalues %v", vals)
	}
	if vecs == nil {
		t.Fatal("nil vectors")
	}
}

func TestJacobiEigenReconstruction(t *testing.T) {
	r := rng.New(3)
	n := 6
	// Build a random symmetric matrix.
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := r.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	vals, vecs, err := JacobiEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	// A·v_k should equal λ_k·v_k for every eigenpair.
	for k := 0; k < n; k++ {
		v := vecs.Col(k)
		av := a.MulVec(v)
		for i := 0; i < n; i++ {
			if !almostEq(av[i], vals[k]*v[i], 1e-8) {
				t.Fatalf("eigenpair %d violated at row %d: %v vs %v", k, i, av[i], vals[k]*v[i])
			}
		}
	}
	// Eigenvalues must be sorted descending.
	for k := 1; k < n; k++ {
		if vals[k] > vals[k-1]+1e-12 {
			t.Fatalf("eigenvalues not sorted: %v", vals)
		}
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2")
	}
	if Norm1([]float64{-1, 2, -3}) != 6 {
		t.Fatal("Norm1")
	}
	s := Sub(b, a)
	if s[0] != 3 || s[1] != 3 || s[2] != 3 {
		t.Fatalf("Sub = %v", s)
	}
	ad := Add(a, b)
	if ad[0] != 5 || ad[2] != 9 {
		t.Fatalf("Add = %v", ad)
	}
	y := []float64{1, 1, 1}
	AXPY(2, a, y)
	if y[0] != 3 || y[2] != 7 {
		t.Fatalf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 {
		t.Fatalf("Scale = %v", y)
	}
}

func TestMeanVarianceStd(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(v) != 5 {
		t.Fatalf("Mean = %v", Mean(v))
	}
	if Variance(v) != 4 {
		t.Fatalf("Variance = %v", Variance(v))
	}
	if Std(v) != 2 {
		t.Fatalf("Std = %v", Std(v))
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate cases")
	}
}

func TestMinkowskiDistance(t *testing.T) {
	a := []float64{0, 0}
	b := []float64{3, 4}
	if !almostEq(MinkowskiDistance(a, b, 2), 5, 1e-12) {
		t.Fatal("L2")
	}
	if !almostEq(MinkowskiDistance(a, b, 1), 7, 1e-12) {
		t.Fatal("L1")
	}
	if !almostEq(MinkowskiDistance(a, b, math.Inf(1)), 4, 1e-12) {
		t.Fatal("Chebyshev")
	}
	if !almostEq(SquaredEuclidean(a, b), 25, 1e-12) {
		t.Fatal("SquaredEuclidean")
	}
}

func TestCovariance(t *testing.T) {
	x := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	means := ColumnMeans(x)
	if means[0] != 3 || means[1] != 4 {
		t.Fatalf("means = %v", means)
	}
	cov := Covariance(x, means)
	// Both columns have variance 8/3 and covariance 8/3 (perfectly correlated).
	want := 8.0 / 3.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(cov.At(i, j), want, 1e-10) {
				t.Fatalf("cov[%d][%d] = %v, want %v", i, j, cov.At(i, j), want)
			}
		}
	}
}

func TestSigmoid(t *testing.T) {
	if !almostEq(Sigmoid(0), 0.5, 1e-12) {
		t.Fatal("Sigmoid(0)")
	}
	if Sigmoid(1000) != 1 || !almostEq(Sigmoid(-1000), 0, 1e-12) {
		t.Fatal("Sigmoid saturation")
	}
	if math.IsNaN(Sigmoid(-745)) || math.IsNaN(Sigmoid(745)) {
		t.Fatal("Sigmoid NaN at extreme input")
	}
}

func TestLogSumExp(t *testing.T) {
	if !almostEq(LogSumExp(0, 0), math.Log(2), 1e-12) {
		t.Fatal("LogSumExp(0,0)")
	}
	// Must not overflow.
	if v := LogSumExp(1000, 999); math.IsInf(v, 1) || math.IsNaN(v) {
		t.Fatalf("LogSumExp overflow: %v", v)
	}
	if !almostEq(LogSumExp(-1e9, 3), 3, 1e-9) {
		t.Fatal("LogSumExp dominant term")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp")
	}
}

// Property: Sigmoid is monotone and bounded for arbitrary inputs.
func TestQuickSigmoid(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		sx, sy := Sigmoid(x), Sigmoid(y)
		if sx < 0 || sx > 1 || sy < 0 || sy > 1 {
			return false
		}
		if x < y && sx > sy {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The p = 1 branch sums |a−b| without math.Pow; since Go defines
// Pow(x, 1) = x for every x, it must return the Pow path's exact bits,
// ±0 and ±Inf included. A NaN result need only be NaN on both paths: which
// NaN operand's payload an addition keeps depends on the operand order the
// compiler picks, and that differs between builds (a -race build does).
func TestMinkowskiL1MatchesPowBits(t *testing.T) {
	powPath := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			s += math.Pow(math.Abs(a[i]-b[i]), 1)
		}
		return math.Pow(s, 1)
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e308, 5e-324}
	r := rng.New(61)
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(12)
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = (r.Float64()-0.5)*1e3, (r.Float64()-0.5)*1e3
			if r.Intn(4) == 0 {
				a[i] = specials[r.Intn(len(specials))]
			}
			if r.Intn(4) == 0 {
				b[i] = specials[r.Intn(len(specials))]
			}
		}
		got, want := MinkowskiDistance(a, b, 1), powPath(a, b)
		if math.IsNaN(got) && math.IsNaN(want) {
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("a=%v b=%v: p=1 branch %v (%#x), Pow path %v (%#x)",
				a, b, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// Property: Minkowski distance satisfies symmetry and identity.
func TestQuickDistanceAxioms(t *testing.T) {
	f := func(a1, a2, b1, b2 float64) bool {
		for _, v := range []float64{a1, a2, b1, b2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		a := []float64{a1, a2}
		b := []float64{b1, b2}
		d1 := MinkowskiDistance(a, b, 2)
		d2 := MinkowskiDistance(b, a, 2)
		if !almostEq(d1, d2, 1e-9*(1+d1)) {
			return false
		}
		return MinkowskiDistance(a, a, 2) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMul50(b *testing.B) {
	r := rng.New(1)
	a := NewMatrix(50, 50)
	c := NewMatrix(50, 50)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
		c.Data[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Mul(c)
	}
}

func BenchmarkSolve20(b *testing.B) {
	r := rng.New(1)
	a := NewMatrix(20, 20)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	a.AddScaledIdentity(20)
	v := make([]float64, 20)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Solve(a, v)
	}
}
