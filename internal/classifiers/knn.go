package classifiers

import (
	"mlaasbench/internal/linalg"
	"mlaasbench/internal/rng"
)

func init() {
	register(Info{
		Name:   "knn",
		Label:  "KNN",
		Linear: false,
		Params: []ParamSpec{
			{Name: "n_neighbors", Kind: Numeric, Default: 5, Min: 1, Max: 200, IsInt: true},
			{Name: "weights", Kind: Categorical, Options: []any{"uniform", "distance"}},
			{Name: "p", Kind: Numeric, Default: 2, Min: 1, Max: 10},
		},
	}, func(p Params) Classifier { return &KNN{params: p} })
}

// KNN is a brute-force k-nearest-neighbours classifier under the Minkowski
// Lp metric, with uniform or inverse-distance vote weighting — the
// scikit-learn surface from Table 1.
type KNN struct {
	params Params
	x      [][]float64
	y      []int
	// xm is the training set packed contiguous row-major at fit time, so
	// the Euclidean predict path can run the blocked distance kernel.
	xm *linalg.Matrix
}

// Name implements Classifier.
func (*KNN) Name() string { return "knn" }

// Fit implements Classifier. KNN is a lazy learner: Fit stores the data
// (plus a contiguous copy for the batched distance kernel).
func (k *KNN) Fit(x [][]float64, y []int, _ *rng.RNG) error {
	if _, _, err := validateFit(x, y); err != nil {
		return err
	}
	k.x = x
	k.y = y
	k.xm = linalg.FromRows(x)
	return nil
}

// Predict implements Classifier. Neighbour selection is a bounded
// k-selection — an O(n log k) max-heap over the n training distances —
// instead of a full O(n log n) sort per query; KNN is the hottest classifier
// in the measurement sweep. Ties at the k-th distance break by training
// index (lowest wins), which makes the selected set deterministic.
func (k *KNN) Predict(x [][]float64) []int {
	kk := k.params.Int("n_neighbors", 5)
	if kk > len(k.x) {
		kk = len(k.x)
	}
	if kk < 1 {
		kk = 1
	}
	p := k.params.Float("p", 2)
	if p < 1 {
		p = 1
	}
	distWeighted := k.params.String("weights", "uniform") == "distance"

	out := make([]int, len(x))
	h := newKHeap(kk)
	if p == 2 && k.xm != nil && k.xm.Rows > 0 {
		k.predictEuclidean(x, out, h, distWeighted)
		return out
	}
	for qi, q := range x {
		h.reset()
		for i, row := range k.x {
			var dist float64
			if p == 2 {
				dist = linalg.SquaredEuclidean(row, q)
			} else {
				dist = linalg.MinkowskiDistance(row, q, p)
			}
			h.offer(dist, i)
		}
		out[qi] = h.vote(k.y, distWeighted)
	}
	return out
}

// knnQueryBlock bounds the distance-buffer footprint: one block of query
// rows is scored against every training row per kernel call, so the tile
// of training rows the kernel keeps cache-resident is reused across the
// whole block instead of one query.
const knnQueryBlock = 32

// predictEuclidean is the p=2 fast path: query blocks stream through the
// blocked SquaredEuclideanBatch kernel into a pooled buffer, then each
// query's distance row feeds the same bounded-k heap in ascending training
// index — the kernel is bit-identical to per-pair SquaredEuclidean and the
// offer order is unchanged, so the selected neighbour set (including index
// tie-breaks) and the votes match the scalar path exactly.
func (k *KNN) predictEuclidean(x [][]float64, out []int, h *kHeap, distWeighted bool) {
	n := k.xm.Rows
	sp := getScratch(min(knnQueryBlock, len(x)) * n)
	defer putScratch(sp)
	buf := *sp
	for q0 := 0; q0 < len(x); q0 += knnQueryBlock {
		q1 := min(q0+knnQueryBlock, len(x))
		qs := x[q0:q1]
		d := buf[:len(qs)*n]
		linalg.SquaredEuclideanBatch(d, qs, k.xm)
		for qi := range qs {
			h.reset()
			drow := d[qi*n : (qi+1)*n]
			k0 := min(h.k, n)
			for i := 0; i < k0; i++ {
				h.offer(drow[i], i)
			}
			// Candidates arrive in ascending training index, so every index
			// from here on loses the (dist, idx) tie-break against anything
			// already in the heap: a full heap rejects exactly dist >= worst.
			// The inline check skips the non-inlined offer call for the vast
			// majority of rows — the heap only sees the same offers it would
			// have accepted, so the selected set is unchanged.
			worst := h.dist[0]
			for i := k0; i < n; i++ {
				if dist := drow[i]; dist < worst {
					h.offer(dist, i)
					worst = h.dist[0]
				}
			}
			out[q0+qi] = h.vote(k.y, distWeighted)
		}
	}
}

// kHeap keeps the k nearest (distance, training index) pairs seen so far as
// a binary max-heap ordered lexicographically by (dist, idx): the root is
// the current worst neighbour, so a closer candidate replaces it in O(log k).
type kHeap struct {
	k    int
	dist []float64
	idx  []int
}

func newKHeap(k int) *kHeap {
	return &kHeap{k: k, dist: make([]float64, 0, k), idx: make([]int, 0, k)}
}

func (h *kHeap) reset() {
	h.dist = h.dist[:0]
	h.idx = h.idx[:0]
}

// after reports whether element a orders after element b, i.e. a is a worse
// neighbour under the (dist, idx) lexicographic order.
func (h *kHeap) after(a, b int) bool {
	return h.dist[a] > h.dist[b] || (h.dist[a] == h.dist[b] && h.idx[a] > h.idx[b])
}

// offer considers one candidate: push while under capacity, else replace the
// root when the candidate is nearer than the current worst neighbour.
func (h *kHeap) offer(dist float64, idx int) {
	if len(h.dist) < h.k {
		h.dist = append(h.dist, dist)
		h.idx = append(h.idx, idx)
		for i := len(h.dist) - 1; i > 0; {
			parent := (i - 1) / 2
			if !h.after(i, parent) {
				break
			}
			h.swap(i, parent)
			i = parent
		}
		return
	}
	if dist > h.dist[0] || (dist == h.dist[0] && idx > h.idx[0]) {
		return // not nearer than the current worst
	}
	h.dist[0], h.idx[0] = dist, idx
	h.siftDown(0)
}

// vote tallies the selected neighbours' labels (uniform or inverse-distance
// weighted) and returns the winning class.
func (h *kHeap) vote(y []int, distWeighted bool) int {
	var votes [2]float64
	for j := 0; j < len(h.dist); j++ {
		wgt := 1.0
		if distWeighted {
			wgt = 1 / (h.dist[j] + 1e-9)
		}
		votes[y[h.idx[j]]] += wgt
	}
	if votes[1] > votes[0] {
		return 1
	}
	return 0
}

func (h *kHeap) swap(a, b int) {
	h.dist[a], h.dist[b] = h.dist[b], h.dist[a]
	h.idx[a], h.idx[b] = h.idx[b], h.idx[a]
}

func (h *kHeap) siftDown(i int) {
	n := len(h.dist)
	for {
		worst := i
		if l := 2*i + 1; l < n && h.after(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && h.after(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		h.swap(i, worst)
		i = worst
	}
}
