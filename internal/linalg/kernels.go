package linalg

import "fmt"

// This file is the batch-kernel layer: blocked matrix multiply (MulInto,
// MulTransBInto, MulVecInto), batched pairwise distances
// (SquaredEuclideanBatch), their early-abandon tile form
// (SquaredEuclideanPruned), and fused vector kernels (DotBias, DotFrom,
// ColInto) that the classifier forward passes route through. Two contracts
// hold for every kernel here:
//
//  1. Determinism. For each output element the floating-point accumulation
//     order is exactly the order the naive reference loop uses (ascending
//     k for products, ascending feature index for distances). Blocking only
//     re-tiles the *independent* output dimensions, so results are
//     bit-identical to the scalar code they replace — asserted by the
//     exact-equality property tests in kernels_test.go.
//  2. No hidden allocation. Every *Into kernel writes into caller-owned
//     memory, so serving hot paths can reuse buffers across requests.
//
// Block sizes are chosen for ~32KB L1 data caches: one B-panel or one
// training-row tile stays resident while the outer dimension streams.
const (
	gemmJBlock = 128 // output columns per B panel
	gemmKBlock = 128 // inner-dimension entries per panel
	gemmRBlock = 64  // rows of B (= output columns) per MulTransBInto tile
	distRBlock = 128 // training rows per SquaredEuclideanBatch tile
)

// pruneStep is the number of features between two checkpoints of
// SquaredEuclideanPruned after the first. Measured on kNN predict, 256
// queries, k = 5 (2-vCPU Xeon 2.1 GHz): 8 gives 3.4 ms on 1 600 × 32
// standardized clusters against 4.0 ms for both 4 (the per-checkpoint
// compaction outweighs the earlier exit) and 16 (rows that 8 features
// already rule out run 16); on 2 048 × 24 i.i.d. rows 4 / 8 / 16 give
// 5.7 / 5.2 / 5.1 ms.
const pruneStep = 8

// MulInto computes dst = a·b with j/k blocking, reusing dst's backing array
// (dst is zeroed first). dst must be pre-shaped a.Rows×b.Cols and must not
// alias a or b. Each output element accumulates its products in ascending-k
// order — the same order as the naive triple loop, including its skip of
// zero a-elements — so the result is bit-identical to Mul's historical
// output while the blocking keeps one kBlock×jBlock panel of b resident in
// cache across every row of a.
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MulInto shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MulInto dst %dx%d for %dx%d product", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for jj := 0; jj < b.Cols; jj += gemmJBlock {
		jMax := min(jj+gemmJBlock, b.Cols)
		for kk := 0; kk < a.Cols; kk += gemmKBlock {
			kMax := min(kk+gemmKBlock, a.Cols)
			for i := 0; i < a.Rows; i++ {
				ai := a.Data[i*a.Cols : (i+1)*a.Cols]
				di := dst.Data[i*dst.Cols+jj : i*dst.Cols+jMax]
				for k := kk; k < kMax; k++ {
					aik := ai[k]
					if aik == 0 {
						continue
					}
					bk := b.Data[k*b.Cols+jj : k*b.Cols+jMax]
					bk = bk[:len(di)]
					for j, bkj := range bk {
						di[j] += aik * bkj
					}
				}
			}
		}
	}
	return dst
}

// MulTransBInto computes dst = a·bᵀ, i.e. dst[i][j] = Dot(a.Row(i),
// b.Row(j)), reusing dst's backing array. Both operands are walked along
// their contiguous rows (the natural layout for weight matrices stored as
// rows) and the j-tiling keeps a block of b's rows cache-resident while a
// streams. Four output elements are computed per pass with four independent
// accumulators: a scalar dot is latency-bound on the FP add chain, so the
// independent chains are where the batch speedup comes from. Each
// accumulator still sums its own products in ascending-k order exactly like
// Dot, so every element stays bit-identical to the per-row code. This is
// the batch forward-pass kernel: X (rows×features) against a weight matrix
// W (units×features) yields all unit pre-activations in one call.
func MulTransBInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MulTransBInto width mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MulTransBInto dst %dx%d for %dx%d product", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	w := b.Cols
	for jj := 0; jj < b.Rows; jj += gemmRBlock {
		jMax := min(jj+gemmRBlock, b.Rows)
		for i := 0; i < a.Rows; i++ {
			ai := a.Data[i*a.Cols : (i+1)*a.Cols]
			di := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			j := jj
			for ; j+3 < jMax; j += 4 {
				b0 := b.Data[j*w : j*w+w][:len(ai)]
				b1 := b.Data[(j+1)*w : (j+1)*w+w][:len(ai)]
				b2 := b.Data[(j+2)*w : (j+2)*w+w][:len(ai)]
				b3 := b.Data[(j+3)*w : (j+3)*w+w][:len(ai)]
				var s0, s1, s2, s3 float64
				for k, av := range ai {
					s0 += av * b0[k]
					s1 += av * b1[k]
					s2 += av * b2[k]
					s3 += av * b3[k]
				}
				di[j], di[j+1], di[j+2], di[j+3] = s0, s1, s2, s3
			}
			for ; j < jMax; j++ {
				bj := b.Data[j*w : j*w+w]
				bj = bj[:len(ai)]
				s := 0.0
				for k, av := range ai {
					s += av * bj[k]
				}
				di[j] = s
			}
		}
	}
	return dst
}

// MulVecInto computes dst = m·v, reusing the caller's dst (len m.Rows).
// Row-by-row ascending accumulation, identical to MulVec without the
// per-call allocation.
func MulVecInto(dst []float64, m *Matrix, v []float64) []float64 {
	if m.Cols != len(v) {
		panic("linalg: MulVecInto shape mismatch")
	}
	if len(dst) != m.Rows {
		panic("linalg: MulVecInto dst length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		row = row[:len(v)]
		s := 0.0
		for k, rv := range row {
			s += rv * v[k]
		}
		dst[i] = s
	}
	return dst
}

// ColInto copies column j of m into the caller's dst (len m.Rows) and
// returns it — Col without the per-call allocation, for loops that walk
// many columns (e.g. LDA's eigen solver).
func ColInto(dst []float64, m *Matrix, j int) []float64 {
	if len(dst) != m.Rows {
		panic("linalg: ColInto dst length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// DotBias returns Dot(a, b) + bias with the same rounding as the two-step
// form: the products accumulate from zero in ascending order and the bias
// is added once at the end. The reslice lets the compiler drop the
// per-element bounds check that Dot pays — this is the fused kernel behind
// the linear-model forward passes (LDA, logistic regression).
func DotBias(bias float64, a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: DotBias length mismatch")
	}
	b = b[:len(a)]
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s + bias
}

// DotFrom accumulates init + Σ a[i]·b[i] starting *from* init — the
// rounding of a running accumulator seeded with a bias, as in the MLP
// output layer (z = b₂; z += w₂[h]·a[h]). Note DotFrom(x, a, b) and
// DotBias(x, a, b) differ in rounding; pick the one matching the scalar
// code being replaced.
func DotFrom(init float64, a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: DotFrom length mismatch")
	}
	b = b[:len(a)]
	s := init
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// SquaredEuclideanBatch fills dst (row-major len(qs)×x.Rows, caller-owned)
// with the squared L2 distance from every query to every row of x:
// dst[q*x.Rows+i] = SquaredEuclidean(x.Row(i), qs[q]). The training tile
// loop keeps distRBlock rows of x cache-resident across all queries, which
// is where the win over per-query streaming comes from; per (query, row)
// pair the subtract-square accumulation runs in ascending feature order,
// exactly like SquaredEuclidean, so every distance is bit-identical. Eight
// training rows are processed per pass with eight independent accumulators —
// the scalar distance loop is latency-bound on its FP add chain, and the
// independent chains (plus the query row staying in registers across all
// four) are the batch win. Queries must be at least x.Cols wide (extra
// trailing entries are ignored, matching SquaredEuclidean's
// iterate-over-the-first-argument behaviour); a narrower query panics, the
// ragged-input guard.
func SquaredEuclideanBatch(dst []float64, qs [][]float64, x *Matrix) {
	n, w := x.Rows, x.Cols
	if len(dst) < len(qs)*n {
		panic(fmt.Sprintf("linalg: SquaredEuclideanBatch dst len %d < %d×%d", len(dst), len(qs), n))
	}
	if n == 0 || len(qs) == 0 {
		return
	}
	for qi, q := range qs {
		if len(q) < w {
			panic(fmt.Sprintf("linalg: SquaredEuclideanBatch query %d has %d features, matrix has %d", qi, len(q), w))
		}
	}
	for xx := 0; xx < n; xx += distRBlock {
		xMax := min(xx+distRBlock, n)
		for qi, q := range qs {
			qv := q[:w]
			drow := dst[qi*n : (qi+1)*n]
			ri := xx
			for ; ri+7 < xMax; ri += 8 {
				r0 := x.Data[ri*w : ri*w+w][:len(qv)]
				r1 := x.Data[(ri+1)*w : (ri+1)*w+w][:len(qv)]
				r2 := x.Data[(ri+2)*w : (ri+2)*w+w][:len(qv)]
				r3 := x.Data[(ri+3)*w : (ri+3)*w+w][:len(qv)]
				r4 := x.Data[(ri+4)*w : (ri+4)*w+w][:len(qv)]
				r5 := x.Data[(ri+5)*w : (ri+5)*w+w][:len(qv)]
				r6 := x.Data[(ri+6)*w : (ri+6)*w+w][:len(qv)]
				r7 := x.Data[(ri+7)*w : (ri+7)*w+w][:len(qv)]
				var s0, s1, s2, s3, s4, s5, s6, s7 float64
				for j, qj := range qv {
					d0 := r0[j] - qj
					s0 += d0 * d0
					d1 := r1[j] - qj
					s1 += d1 * d1
					d2 := r2[j] - qj
					s2 += d2 * d2
					d3 := r3[j] - qj
					s3 += d3 * d3
					d4 := r4[j] - qj
					s4 += d4 * d4
					d5 := r5[j] - qj
					s5 += d5 * d5
					d6 := r6[j] - qj
					s6 += d6 * d6
					d7 := r7[j] - qj
					s7 += d7 * d7
				}
				drow[ri], drow[ri+1], drow[ri+2], drow[ri+3] = s0, s1, s2, s3
				drow[ri+4], drow[ri+5], drow[ri+6], drow[ri+7] = s4, s5, s6, s7
			}
			for ; ri < xMax; ri++ {
				row := x.Data[ri*w : ri*w+w]
				row = row[:len(qv)]
				s := 0.0
				for j, rj := range row {
					d := rj - qv[j]
					s += d * d
				}
				drow[ri] = s
			}
		}
	}
}

// SquaredEuclideanPruned is the early-abandon form of the distance kernel
// for one query against the training tile x[lo:hi): it finds the rows whose
// squared L2 distance to q is below bound and stops accumulating every
// other row at the first checkpoint that rules it out. On return idx[:m]
// holds the surviving row indices in ascending order and dist[:m] their
// distances; dist and idx are caller-owned scratch of at least hi-lo cells,
// unspecified beyond m.
//
// Each row's sum accumulates from zero in ascending feature order in a
// single accumulator, exactly like SquaredEuclidean, and is compared with
// bound after the first `first` features (clamped to [1, x.Cols]) and after
// every pruneStep more; rows with prefix < bound are compacted to the front
// and only they continue. The kernel is exact: a squared difference is
// never negative and adding a non-negative term never lowers an IEEE sum,
// so a dropped row's full distance is >= its prefix >= bound — or NaN, since
// a NaN prefix fails the comparison and stays NaN — which makes the dropped
// rows precisely those for which `distance < bound` is false (all of them
// under a NaN bound); a surviving distance went through the scalar loop's
// additions in the scalar loop's order and is bit-identical to it.
//
// alive is the number of rows still in after the first checkpoint: the
// caller's measure of whether a checkpoint that early pays on its data. q
// must be at least x.Cols wide (extra entries are ignored); a narrower
// query, a tile outside x or short scratch panics.
func SquaredEuclideanPruned(dist []float64, idx []int, q []float64, x *Matrix, lo, hi int, bound float64, first int) (m, alive int) {
	w := x.Cols
	if len(q) < w {
		panic(fmt.Sprintf("linalg: SquaredEuclideanPruned query has %d features, matrix has %d", len(q), w))
	}
	if lo < 0 || hi > x.Rows || lo > hi || len(dist) < hi-lo || len(idx) < hi-lo {
		panic(fmt.Sprintf("linalg: SquaredEuclideanPruned tile [%d,%d) of %d rows with scratch %d/%d", lo, hi, x.Rows, len(dist), len(idx)))
	}
	c := min(max(first, 1), w)
	m = sqdistPrefix(dist, idx, q[:c], x, lo, hi, bound)
	alive = m
	for ; c < w && m > 0; c += pruneStep {
		m = sqdistExtend(dist, idx[:m], q[c:min(c+pruneStep, w)], x, c, bound)
	}
	return m, alive
}

// sqdistPrefix sums the first len(qv) features of rows [lo,hi), eight rows
// per pass with eight independent accumulators as SquaredEuclideanBatch
// does, and keeps (sum, row) of the rows whose sum is below bound. Every
// candidate is stored and the cursor advances only past a keeper: whether a
// row survives is a coin flip to the branch predictor, a store is not.
func sqdistPrefix(dist []float64, idx []int, qv []float64, x *Matrix, lo, hi int, bound float64) int {
	w := x.Cols
	m := 0
	ri := lo
	for ; ri+7 < hi; ri += 8 {
		r0 := x.Data[ri*w : ri*w+w][:len(qv)]
		r1 := x.Data[(ri+1)*w : (ri+1)*w+w][:len(qv)]
		r2 := x.Data[(ri+2)*w : (ri+2)*w+w][:len(qv)]
		r3 := x.Data[(ri+3)*w : (ri+3)*w+w][:len(qv)]
		r4 := x.Data[(ri+4)*w : (ri+4)*w+w][:len(qv)]
		r5 := x.Data[(ri+5)*w : (ri+5)*w+w][:len(qv)]
		r6 := x.Data[(ri+6)*w : (ri+6)*w+w][:len(qv)]
		r7 := x.Data[(ri+7)*w : (ri+7)*w+w][:len(qv)]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for j, qj := range qv {
			d0 := r0[j] - qj
			s0 += d0 * d0
			d1 := r1[j] - qj
			s1 += d1 * d1
			d2 := r2[j] - qj
			s2 += d2 * d2
			d3 := r3[j] - qj
			s3 += d3 * d3
			d4 := r4[j] - qj
			s4 += d4 * d4
			d5 := r5[j] - qj
			s5 += d5 * d5
			d6 := r6[j] - qj
			s6 += d6 * d6
			d7 := r7[j] - qj
			s7 += d7 * d7
		}
		// m <= ri-lo, so the eight cells from m are inside the scratch.
		d, ix := dist[m:m+8], idx[m:m+8]
		k := 0
		for t, st := range [8]float64{s0, s1, s2, s3, s4, s5, s6, s7} {
			d[k&7], ix[k&7] = st, ri+t
			if st < bound {
				k++
			}
		}
		m += k
	}
	for ; ri < hi; ri++ {
		row := x.Data[ri*w : ri*w+w][:len(qv)]
		s := 0.0
		for j, rj := range row {
			d := rj - qv[j]
			s += d * d
		}
		dist[m], idx[m] = s, ri
		if s < bound {
			m++
		}
	}
	return m
}

// sqdistExtend resumes the surviving rows idx from their prefix sums in
// dist over features [c, c+len(qv)), four rows per pass, and compacts the
// rows still below bound to the front in order; it returns how many remain.
// The write cursor never passes the read cursor, and a pass reads its four
// rows before it writes any.
func sqdistExtend(dist []float64, idx []int, qv []float64, x *Matrix, c int, bound float64) int {
	w := x.Cols
	dist = dist[:len(idx)]
	m := 0
	j := 0
	for ; j+3 < len(idx); j += 4 {
		i0, i1, i2, i3 := idx[j], idx[j+1], idx[j+2], idx[j+3]
		r0 := x.Data[i0*w+c : i0*w+w][:len(qv)]
		r1 := x.Data[i1*w+c : i1*w+w][:len(qv)]
		r2 := x.Data[i2*w+c : i2*w+w][:len(qv)]
		r3 := x.Data[i3*w+c : i3*w+w][:len(qv)]
		s0, s1, s2, s3 := dist[j], dist[j+1], dist[j+2], dist[j+3]
		for t, qt := range qv {
			d0 := r0[t] - qt
			s0 += d0 * d0
			d1 := r1[t] - qt
			s1 += d1 * d1
			d2 := r2[t] - qt
			s2 += d2 * d2
			d3 := r3[t] - qt
			s3 += d3 * d3
		}
		dist[m], idx[m] = s0, i0
		if s0 < bound {
			m++
		}
		dist[m], idx[m] = s1, i1
		if s1 < bound {
			m++
		}
		dist[m], idx[m] = s2, i2
		if s2 < bound {
			m++
		}
		dist[m], idx[m] = s3, i3
		if s3 < bound {
			m++
		}
	}
	for ; j < len(idx); j++ {
		i := idx[j]
		row := x.Data[i*w+c : i*w+w][:len(qv)]
		s := dist[j]
		for t, rt := range row {
			d := rt - qv[t]
			s += d * d
		}
		dist[m], idx[m] = s, i
		if s < bound {
			m++
		}
	}
	return m
}
