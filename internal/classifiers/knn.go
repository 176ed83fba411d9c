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
	}, func(p params) Classifier { return &KNN{params: p} })
}

// KNN is a brute-force k-nearest-neighbours classifier under the Minkowski
// Lp metric, with uniform or inverse-distance vote weighting — the
// scikit-learn surface from Table 1.
type KNN struct {
	params
	x [][]float64
	y []int
	// xm is the training set packed contiguous row-major at fit time, so
	// the Euclidean predict path can run the tiled distance kernel.
	xm *linalg.Matrix
}

// Name implements Classifier.
func (*KNN) Name() string { return "knn" }

// Fit implements Classifier. KNN is a lazy learner: Fit stores the data
// (plus a contiguous copy for the tiled distance kernel).
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
	kk, p, distWeighted := k.query()
	out := make([]int, len(x))
	if p == 2 && k.xm != nil && k.xm.Rows > 0 {
		k.predictEuclidean(x, out, kk, distWeighted)
		return out
	}
	h := newKHeap(kk)
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

// query resolves the parameters a prediction reads: k clamped to
// [1, training rows], the Minkowski p floored at 1, and whether votes weigh
// by inverse distance.
func (k *KNN) query() (kk int, p float64, distWeighted bool) {
	kk = max(min(k.params.integer("n_neighbors"), len(k.x)), 1)
	p = max(k.params.float("p"), 1)
	return kk, p, k.params.option("weights") == "distance"
}

// Shape of the Euclidean search (measurements: 256 queries, k = 5, 2-vCPU
// Xeon 2.1 GHz; "clusters" is 1 600 × 32 standardized synth clusters,
// "i.i.d." 2 048 × 24 N(0,1); method and tables in EXPERIMENTS.md "Exact
// early-abandon kNN").
//
// knnQueryBlock queries are scored against one training tile before the
// next tile is loaded, so the tile stays cache-resident across the block.
// A tile is also where a query's pruning bound is refreshed: clusters
// measures the same at 64 rows and 30 % slower at 256. The bound is loosest
// at the start of a block — the worst of the first k rows — so a block's
// first tile is knnFirstTile rows and tiles double up to knnTile: every row
// of a 128-row first tile survived the first checkpoint on clusters, 31 %
// of a 32-row one, predict 3.68 → 3.34 ms (8, 16 and 64 rows: same).
const (
	knnQueryBlock = 32
	knnTile       = 128
	knnFirstTile  = 32
)

// knnCheckpoint is where the first early-abandon checkpoint starts (after 8
// features) and how far it moves back each time a tile shows it not
// paying: more than half of the tile's (query, row) pairs still alive
// after it. On clusters 17 % are and it never moves. On i.i.d. 80 % are, it
// moves to 16 features (22 % alive) and predict takes 5.2 ms against 6.0 for
// both the dense kernel and a checkpoint pinned at 8; on 64- and 128-feature
// i.i.d. rows, where nothing can be ruled out early, pinned costs 19.6 /
// 43.3 ms against the dense 14.5 / 27.3, moving 12.8 / 25.8. Thresholds of
// 1/3, 2/3 and 3/4 measure the same. The move is one-way and lasts for the
// Predict call. Tiles that start within a block's first knnTile rows have
// no say — their bounds are still loose, and letting them vote moved i.i.d.
// to 24 features, i.e. dense, 6.0 ms — and a checkpoint moved too far only
// forgoes pruning: at all features the search is the dense scan plus one
// comparison per row.
const knnCheckpoint = 8

// predictEuclidean is the p=2 fast path, an exact early-abandon search.
// Each query of a block keeps its bounded-k heap alive across the training
// tiles. Until the heap holds k rows every row is offered, as the scalar
// path does (NaN distances included). From then on a tile goes through
// SquaredEuclideanPruned with the heap's current worst distance as bound,
// which returns — bit-identical to per-pair SquaredEuclidean, in ascending
// training index — exactly the rows with distance < bound. Candidates
// arrive in ascending index, so each one loses the (dist, idx) tie-break
// against anything already in the heap and a full heap accepts exactly
// dist < worst; worst only falls as rows are accepted (and accepts nothing
// once it is NaN), so a row the kernel dropped under an earlier, larger
// worst is one this loop would have rejected. The heap therefore sees the
// same accepted offers in the same order as a scan of all n distances: the
// selected set, its index tie-breaks and the votes match the scalar path.
func (k *KNN) predictEuclidean(x [][]float64, out []int, kk int, distWeighted bool) {
	n, w := k.xm.Rows, k.xm.Cols
	s := getKNNScratch(min(knnQueryBlock, len(x)), kk)
	defer putKNNScratch(s)
	first := knnCheckpoint
	for q0 := 0; q0 < len(x); q0 += knnQueryBlock {
		qs := x[q0:min(q0+knnQueryBlock, len(x))]
		heaps := s.heaps[:len(qs)]
		for i := range heaps {
			heaps[i].reset()
		}
		for lo, hi, step := 0, 0, knnFirstTile; lo < n; lo, step = hi, min(2*step, knnTile) {
			hi = min(lo+step, n)
			pairs, alive := 0, 0
			for qi, q := range qs {
				h := &heaps[qi]
				from := lo
				for ; len(h.dist) < h.k && from < hi; from++ {
					h.offer(linalg.SquaredEuclidean(k.xm.Row(from), q), from)
				}
				if from == hi {
					continue
				}
				worst := h.dist[0]
				m, a := linalg.SquaredEuclideanPruned(s.dist, s.idx, q, k.xm, from, hi, worst, first)
				pairs += hi - from
				alive += a
				for j, dist := range s.dist[:m] {
					if dist < worst {
						h.offer(dist, s.idx[j])
						worst = h.dist[0]
					}
				}
			}
			if lo >= knnTile && first < w && 2*alive > pairs {
				first += knnCheckpoint
			}
		}
		for qi := range heaps {
			out[q0+qi] = heaps[qi].vote(k.y, distWeighted)
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
