package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// naiveMul is an independent reference for the historical Mul loop: plain
// i/k/j order with the zero-skip, no blocking. The property tests compare
// kernel output against this bit-for-bit.
func naiveMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += aik * b.At(k, j)
			}
		}
	}
	return out
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch rng.Intn(10) {
		case 0:
			m.Data[i] = 0 // exercise the zero-skip path
		case 1:
			m.Data[i] = rng.NormFloat64() * 1e6
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func assertBitsEqual(t *testing.T, got, want []float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d differs: got %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestMulIntoMatchesNaive drives the blocked GEMM over random shapes —
// including empty, single-row/col, and larger-than-one-block sizes — and
// requires bit-identical output to the unblocked reference.
func TestMulIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := [][3]int{
		{0, 0, 0}, {0, 3, 2}, {1, 1, 1}, {1, 7, 1}, {3, 1, 4},
		{5, 5, 5}, {17, 9, 23}, {64, 64, 64}, {130, 140, 150}, {1, 300, 2},
	}
	for t2 := 0; t2 < 10; t2++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	for _, sh := range shapes {
		a := randMatrix(rng, sh[0], sh[1])
		b := randMatrix(rng, sh[1], sh[2])
		want := naiveMul(a, b)
		got := MulInto(NewMatrix(sh[0], sh[2]), a, b)
		assertBitsEqual(t, got.Data, want.Data, "MulInto")
		// Mul must agree too (it delegates), and reusing a dirty dst must
		// not leak stale values.
		assertBitsEqual(t, a.Mul(b).Data, want.Data, "Mul")
		dirty := NewMatrix(sh[0], sh[2])
		for i := range dirty.Data {
			dirty.Data[i] = math.Inf(1)
		}
		assertBitsEqual(t, MulInto(dirty, a, b).Data, want.Data, "MulInto dirty dst")
	}
}

// TestMulIntoPreservesZeroSkip checks the 0·Inf corner the naive loop's
// zero-skip creates: a zero A element must not turn an Inf in B into NaN.
func TestMulIntoPreservesZeroSkip(t *testing.T) {
	a := FromRows([][]float64{{0, 1}})
	b := FromRows([][]float64{{math.Inf(1), 0}, {2, 3}})
	got := MulInto(NewMatrix(1, 2), a, b)
	want := naiveMul(a, b)
	assertBitsEqual(t, got.Data, want.Data, "zero-skip")
	if math.IsNaN(got.Data[0]) {
		t.Fatalf("zero-skip lost: got NaN from 0*Inf")
	}
}

func TestMulIntoShapePanics(t *testing.T) {
	a, b := NewMatrix(2, 3), NewMatrix(4, 2)
	assertPanics(t, "operand mismatch", func() { MulInto(NewMatrix(2, 2), a, b) })
	b2 := NewMatrix(3, 2)
	assertPanics(t, "dst mismatch", func() { MulInto(NewMatrix(2, 3), a, b2) })
}

func TestMulTransBIntoMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	shapes := [][3]int{
		{0, 4, 3}, {1, 1, 1}, {3, 5, 2}, {9, 17, 80}, {70, 3, 129}, {5, 200, 1},
	}
	for _, sh := range shapes {
		a := randMatrix(rng, sh[0], sh[1])
		b := randMatrix(rng, sh[2], sh[1])
		want := make([]float64, sh[0]*sh[2])
		for i := 0; i < sh[0]; i++ {
			for j := 0; j < sh[2]; j++ {
				want[i*sh[2]+j] = Dot(a.Row(i), b.Row(j))
			}
		}
		got := MulTransBInto(NewMatrix(sh[0], sh[2]), a, b)
		assertBitsEqual(t, got.Data, want, "MulTransBInto")
	}
	assertPanics(t, "width mismatch", func() {
		MulTransBInto(NewMatrix(1, 1), NewMatrix(1, 2), NewMatrix(1, 3))
	})
	assertPanics(t, "dst mismatch", func() {
		MulTransBInto(NewMatrix(1, 1), NewMatrix(2, 3), NewMatrix(4, 3))
	})
}

func TestMulVecIntoMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range [][2]int{{0, 3}, {1, 1}, {7, 5}, {40, 129}} {
		m := randMatrix(rng, sh[0], sh[1])
		v := randMatrix(rng, 1, sh[1]).Data
		want := m.MulVec(v)
		got := MulVecInto(make([]float64, sh[0]), m, v)
		assertBitsEqual(t, got, want, "MulVecInto")
	}
	assertPanics(t, "shape mismatch", func() {
		MulVecInto(make([]float64, 2), NewMatrix(2, 3), make([]float64, 4))
	})
	assertPanics(t, "dst mismatch", func() {
		MulVecInto(make([]float64, 1), NewMatrix(2, 3), make([]float64, 3))
	})
}

func TestColIntoMatchesCol(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randMatrix(rng, 6, 4)
	buf := make([]float64, 6)
	for j := 0; j < 4; j++ {
		assertBitsEqual(t, ColInto(buf, m, j), m.Col(j), "ColInto")
	}
	assertPanics(t, "dst mismatch", func() { ColInto(make([]float64, 5), m, 0) })
}

// TestDotKernels pins the two fused-dot rounding contracts: DotBias rounds
// like Dot(a,b)+bias, DotFrom like a running accumulator seeded with init.
func TestDotKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(60)
		a := randMatrix(rng, 1, n).Data
		b := randMatrix(rng, 1, n).Data
		bias := rng.NormFloat64() * 100
		if got, want := DotBias(bias, a, b), Dot(a, b)+bias; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DotBias: got %v, want %v", got, want)
		}
		want := bias
		for i := range a {
			want += a[i] * b[i]
		}
		if got := DotFrom(bias, a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DotFrom: got %v, want %v", got, want)
		}
	}
	assertPanics(t, "DotBias mismatch", func() { DotBias(0, make([]float64, 2), make([]float64, 3)) })
	assertPanics(t, "DotFrom mismatch", func() { DotFrom(0, make([]float64, 2), make([]float64, 3)) })
}

// TestSquaredEuclideanBatchMatchesScalar compares the blocked distance
// kernel bit-for-bit against per-pair SquaredEuclidean calls over random
// shapes, including empty matrices, empty query sets, single rows, and
// queries wider than the matrix (extra dims ignored, as the scalar form
// iterating over the training row does).
func TestSquaredEuclideanBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	cases := [][3]int{ // nQueries, nRows, width
		{0, 5, 3}, {4, 0, 3}, {1, 1, 1}, {3, 7, 5}, {9, 300, 12}, {33, 129, 4},
	}
	for _, c := range cases {
		nq, n, w := c[0], c[1], c[2]
		x := randMatrix(rng, n, w)
		qs := make([][]float64, nq)
		for i := range qs {
			qw := w + rng.Intn(3) // sometimes wider than x: extras ignored
			qs[i] = randMatrix(rng, 1, qw).Data
		}
		dst := make([]float64, nq*n)
		for i := range dst {
			dst[i] = math.NaN() // dirty buffer must be fully overwritten
		}
		SquaredEuclideanBatch(dst, qs, x)
		for qi, q := range qs {
			for ri := 0; ri < n; ri++ {
				want := SquaredEuclidean(x.Row(ri), q)
				got := dst[qi*n+ri]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("distance (%d,%d): got %v, want %v", qi, ri, got, want)
				}
			}
		}
	}
}

func TestSquaredEuclideanBatchGuards(t *testing.T) {
	x := FromRows([][]float64{{1, 2, 3}})
	assertPanics(t, "short dst", func() {
		SquaredEuclideanBatch(make([]float64, 0), [][]float64{{1, 2, 3}}, x)
	})
	assertPanics(t, "ragged query", func() {
		SquaredEuclideanBatch(make([]float64, 1), [][]float64{{1, 2}}, x)
	})
	// Empty matrix: must return before validating query widths — the scalar
	// path never touched queries when there were no training rows.
	SquaredEuclideanBatch(nil, [][]float64{{1}}, NewMatrix(0, 3))
}

// TestSquaredEuclideanPrunedMatchesScalar holds the early-abandon kernel to
// its contract against per-pair SquaredEuclidean: the rows it returns are
// exactly the rows with distance < bound, in ascending index, each distance
// bit-equal — so every row it dropped has a true distance >= bound (or NaN).
// Sizes straddle the 8-row pass and a kNN tile, widths the checkpoint
// step, the first checkpoint sits before, on and past the width, and the
// tile starts on and off row 0. One training row in eight carries a NaN or
// an infinity, and the bounds include the ones nothing and everything fails.
func TestSquaredEuclideanPrunedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const k = 5
	for _, n := range []int{0, 1, k - 1, k, 127, 128, 129, 1000} {
		for _, w := range []int{1, 7, 8, 9, 24, 33} {
			x := NewMatrix(n, w)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			for r := 3; r < n; r += 8 {
				x.Data[r*w+rng.Intn(w)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r%3]
			}
			q := make([]float64, w+rng.Intn(2)) // sometimes wider: extras ignored
			for i := range q {
				q[i] = rng.NormFloat64()
			}
			want := make([]float64, n)
			finite := make([]float64, 0, n)
			for r := range want {
				want[r] = SquaredEuclidean(x.Row(r), q)
				if !math.IsNaN(want[r]) && !math.IsInf(want[r], 0) {
					finite = append(finite, want[r])
				}
			}
			sort.Float64s(finite)
			bounds := []float64{math.Inf(1), 0, math.NaN()}
			if len(finite) > 0 {
				bounds = append(bounds, finite[len(finite)/2], finite[len(finite)/20])
			}
			dist, idx := make([]float64, n), make([]int, n)
			for _, bound := range bounds {
				for _, first := range []int{0, 8, 16, w, w + 3} {
					for _, lo := range []int{0, min(3, n)} {
						for i := range dist {
							dist[i], idx[i] = math.NaN(), -1 // dirty scratch
						}
						m, alive := SquaredEuclideanPruned(dist, idx, q, x, lo, n, bound, first)
						if alive < m || alive > n-lo {
							t.Fatalf("n=%d w=%d bound=%v first=%d lo=%d: alive=%d with m=%d", n, w, bound, first, lo, alive, m)
						}
						j := 0
						for r := lo; r < n; r++ {
							if !(want[r] < bound) {
								continue
							}
							if j >= m || idx[j] != r || math.Float64bits(dist[j]) != math.Float64bits(want[r]) {
								t.Fatalf("n=%d w=%d bound=%v first=%d lo=%d: survivor %d should be row %d at %v, got %v", n, w, bound, first, lo, j, r, want[r], append(dist[:0:0], dist[:m]...))
							}
							j++
						}
						if j != m {
							t.Fatalf("n=%d w=%d bound=%v first=%d lo=%d: %d rows returned, %d are below the bound", n, w, bound, first, lo, m, j)
						}
					}
				}
			}
		}
	}
}

func TestSquaredEuclideanPrunedGuards(t *testing.T) {
	x := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	d, ix := make([]float64, 2), make([]int, 2)
	assertPanics(t, "ragged query", func() { SquaredEuclideanPruned(d, ix, []float64{1, 2}, x, 0, 2, 1, 8) })
	assertPanics(t, "tile past the matrix", func() { SquaredEuclideanPruned(d, ix, []float64{1, 2, 3}, x, 0, 3, 1, 8) })
	assertPanics(t, "short scratch", func() { SquaredEuclideanPruned(d[:1], ix, []float64{1, 2, 3}, x, 0, 2, 1, 8) })
	if m, alive := SquaredEuclideanPruned(nil, nil, []float64{1, 2, 3}, x, 1, 1, 1, 8); m != 0 || alive != 0 {
		t.Fatalf("empty tile: m=%d alive=%d", m, alive)
	}
}

func assertPanics(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}
