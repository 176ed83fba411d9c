package classifiers

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

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

// KNN is a k-nearest-neighbours classifier under the Minkowski Lp metric,
// with uniform or inverse-distance vote weighting — the scikit-learn
// surface from Table 1. Predict scans every training row, or skips the
// clusters of an exact index built on first use and never serialized.
type KNN struct {
	params
	x [][]float64
	y []int
	// xm is the training set packed contiguous row-major at fit time, so
	// the Euclidean predict path can run the tiled distance kernel.
	xm *linalg.Matrix
	// index is the cluster index: nil until built, noKNNIndex if unusable.
	index   atomic.Pointer[knnIndex]
	indexMu sync.Mutex // serializes the build
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
	k.index.Store(nil)
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
		if ix := k.clusterIndex(x, kk, distWeighted); ix != nil {
			s := getKNNScratch(1, kk)
			for qi, q := range x {
				ix.search(&s.heaps[0], s, q)
				out[qi] = s.heaps[0].vote(k.y, false)
			}
			putKNNScratch(s)
		} else {
			k.predictEuclidean(x, out, kk, distWeighted)
		}
		return out
	}
	h := newKHeap(kk)
	for qi, q := range x {
		h.reset()
		for i, row := range k.x {
			h.offer(linalg.MinkowskiDistance(row, q, p), i)
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

// Shape of the Euclidean search; the measurements that chose every constant
// here are in EXPERIMENTS.md "Exact early-abandon kNN". knnQueryBlock
// queries are scored against one training tile before the next is loaded,
// so the tile stays cache-resident across the block. A tile is also where a
// query's pruning bound is refreshed; it is loosest at the start of a block
// (the worst of the first k rows), so a block's first tile is knnFirstTile
// rows and tiles double up to knnTile.
const (
	knnQueryBlock = 32
	knnTile       = 128
	knnFirstTile  = 32
)

// knnCheckpoint is where the first early-abandon checkpoint starts (after 8
// features) and how far it moves back each time a tile shows it not
// paying: more than half of the tile's (query, row) pairs still alive
// after it. The move is one-way and lasts for the Predict call. Tiles that
// start within a block's first knnTile rows have no say, as their bounds
// are still loose. A checkpoint moved too far only forgoes pruning: at all
// features the search is the dense scan plus one comparison per row.
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

// The cluster index's build rule (EXPERIMENTS.md "Exact early-abandon
// kNN"): a model of knnIndexMinRows rows builds it, with knnCentres centres,
// on its first uniform-vote Euclidean call of knnIndexMinQueries queries and
// keeps it only if a trial search of knnTrialRows of its own rows visits at
// most half of their (query, row) pairs, which i.i.d. data does not.
const (
	knnIndexMinRows    = 4 * knnTile
	knnIndexMinQueries = 2 * knnQueryBlock
	knnCentres         = 16
	knnTrialRows       = 32
	knnSkipEps         = 1e-6
	knnIndexMaxAbs     = 1e100
)

// knnIndex holds the training rows in cluster order (x; orig maps them back
// to training indices) and per cluster a centre row and a radius. search
// skips cluster c when lb² exceeds the heap's worst, lb = d(q,c)·(1−ε) −
// radius·(1+ε): no row of c is nearer, even as computed (ε = knnSkipEps,
// values within ±knnIndexMaxAbs, lb ≥ 2⁻⁴⁵⁰; DESIGN.md §3a). Other rows are
// offered with their training index, so the (dist, idx) heap keeps the
// scan's k rows in any offer order, and uniform votes are integer sums.
type knnIndex struct {
	x, centres *linalg.Matrix
	orig       []int
	start      []int // cluster c is rows start[c]:start[c+1] of x
	radius     []float64
}

var noKNNIndex = new(knnIndex)  // marks a model that cannot use an index
var knnIndexBuilds atomic.Int64 // index builds, for TestKNNIndexBuildsOnce

// clusterIndex returns the index if this call can use it, built on the
// first call that qualifies. Distance-weighted votes, whose float sums
// round by offer order, keep the scan.
func (k *KNN) clusterIndex(x [][]float64, kk int, distWeighted bool) *knnIndex {
	ix := k.index.Load()
	if ix == nil && !distWeighted && k.xm.Rows >= knnIndexMinRows && len(x) >= knnIndexMinQueries {
		k.indexMu.Lock()
		if ix = k.index.Load(); ix == nil {
			ix = buildKNNIndex(k.xm, kk)
			k.index.Store(ix)
		}
		k.indexMu.Unlock()
	}
	if ix == nil || ix == noKNNIndex || !boundedRows(x) {
		return nil
	}
	return ix
}

// boundedRows reports whether every value is within ±knnIndexMaxAbs (so
// neither NaN nor infinite).
func boundedRows(rows [][]float64) bool {
	for _, row := range rows {
		for _, v := range row {
			if !(math.Abs(v) <= knnIndexMaxAbs) {
				return false
			}
		}
	}
	return true
}

// buildKNNIndex picks centres farthest-first from row 0 (no randomness),
// puts each row in the cluster of its nearest centre (the lowest on a tie)
// and runs the trial.
func buildKNNIndex(xm *linalg.Matrix, kk int) *knnIndex {
	if knnIndexBuilds.Add(1); !boundedRows([][]float64{xm.Data}) {
		return noKNNIndex
	}
	n := xm.Rows
	near := make([]float64, n) // squared distance to the nearest centre
	of := make([]int, n)       // and its cluster
	rows := []int{0}           // the training row of each centre
	for far := 0; ; {
		for i := range near {
			if d := linalg.SquaredEuclidean(xm.Row(i), xm.Row(far)); len(rows) == 1 || d < near[i] {
				near[i], of[i] = d, len(rows)-1
			}
		}
		for i, d := range near {
			if d > near[far] {
				far = i
			}
		}
		if len(rows) == knnCentres || near[far] == 0 {
			break
		}
		rows = append(rows, far)
	}
	ix := &knnIndex{x: linalg.NewMatrix(n, xm.Cols), centres: linalg.NewMatrix(len(rows), xm.Cols),
		orig: make([]int, n), start: make([]int, len(rows)+1), radius: make([]float64, len(rows))}
	for i, c := range of {
		ix.start[c+1]++
		ix.radius[c] = max(ix.radius[c], math.Sqrt(near[i]))
	}
	for c, r := range rows {
		copy(ix.centres.Row(c), xm.Row(r))
		ix.start[c+1] += ix.start[c]
	}
	next := slices.Clone(ix.start)
	for i, c := range of {
		copy(ix.x.Row(next[c]), xm.Row(i))
		ix.orig[next[c]] = i
		next[c]++
	}
	s := getKNNScratch(1, kk)
	defer putKNNScratch(s)
	visited := 0
	for t := range knnTrialRows {
		if visited += ix.search(&s.heaps[0], s, xm.Row(t*n/knnTrialRows)); 2*visited > knnTrialRows*n {
			return noKNNIndex
		}
	}
	return ix
}

// search fills h with q's k nearest rows, the nearest centre's cluster
// first, and returns how many rows it visited. The kernel's bound sits just
// above the heap's worst: out of index order, a tie may win on its index.
func (ix *knnIndex) search(h *kHeap, s *knnScratch, q []float64) (visited int) {
	h.reset()
	dq, order := s.cdist[:len(ix.radius)], s.corder[:len(ix.radius)]
	for c := range dq {
		dq[c], order[c] = math.Sqrt(linalg.SquaredEuclidean(ix.centres.Row(c), q)), c
		if dq[c] < dq[order[0]] {
			order[0], order[c] = c, order[0]
		}
	}
	for _, c := range order {
		lb := dq[c]*(1-knnSkipEps) - ix.radius[c]*(1+knnSkipEps)
		if len(h.dist) == h.k && lb > 0x1p-450 && lb*lb > h.dist[0] {
			continue
		}
		lo, hi := ix.start[c], ix.start[c+1]
		visited += hi - lo
		for ; lo < hi && len(h.dist) < h.k; lo++ {
			h.offer(linalg.SquaredEuclidean(ix.x.Row(lo), q), ix.orig[lo])
		}
		for step := knnFirstTile; lo < hi; lo, step = lo+step, min(2*step, knnTile) {
			bound := math.Nextafter(h.dist[0], math.Inf(1))
			m, _ := linalg.SquaredEuclideanPruned(s.dist, s.idx, q, ix.x, lo, min(lo+step, hi), bound, knnCheckpoint)
			for j, dist := range s.dist[:m] {
				h.offer(dist, ix.orig[s.idx[j]])
			}
		}
	}
	return visited
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
