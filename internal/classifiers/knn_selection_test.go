package classifiers

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"mlaasbench/internal/linalg"
	"mlaasbench/internal/rng"
)

// referenceKNNPredict is the straightforward full-sort implementation the
// heap-based Predict replaced, with the same (dist, index) tie order.
func referenceKNNPredict(k *KNN, x [][]float64) []int {
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
	type nd struct {
		dist float64
		idx  int
	}
	for qi, q := range x {
		nds := make([]nd, len(k.x))
		for i, row := range k.x {
			var dist float64
			if p == 2 {
				dist = linalg.SquaredEuclidean(row, q)
			} else {
				dist = linalg.MinkowskiDistance(row, q, p)
			}
			nds[i] = nd{dist: dist, idx: i}
		}
		sort.Slice(nds, func(a, b int) bool {
			if nds[a].dist != nds[b].dist {
				return nds[a].dist < nds[b].dist
			}
			return nds[a].idx < nds[b].idx
		})
		var votes [2]float64
		for i := 0; i < kk; i++ {
			wgt := 1.0
			if distWeighted {
				wgt = 1 / (nds[i].dist + 1e-9)
			}
			votes[k.y[nds[i].idx]] += wgt
		}
		if votes[1] > votes[0] {
			out[qi] = 1
		}
	}
	return out
}

// denseScanKNNPredict is the Euclidean scan the early-abandon search
// replaced: every distance computed per pair, the first k rows offered
// unconditionally, every later row offered iff dist < the heap's current
// worst. It is the oracle where a full sort is not one: with NaN distances
// the selection depends on the order of the heap operations, and the search
// must reproduce exactly these.
func denseScanKNNPredict(k *KNN, x [][]float64) []int {
	kk := max(min(k.params.Int("n_neighbors", 5), len(k.x)), 1)
	distWeighted := k.params.String("weights", "uniform") == "distance"
	out := make([]int, len(x))
	h := newKHeap(kk)
	for qi, q := range x {
		h.reset()
		for i, row := range k.x {
			if dist := linalg.SquaredEuclidean(row, q); i < kk || dist < h.dist[0] {
				h.offer(dist, i)
			}
		}
		out[qi] = h.vote(k.y, distWeighted)
	}
	return out
}

// The bounded k-selection must agree with a full sort on every query —
// including duplicate points, which force exact distance ties.
func TestKNNSelectionMatchesFullSort(t *testing.T) {
	r := rng.New(11)
	for _, tc := range []struct {
		name    string
		k       int
		weights string
		p       float64
	}{
		{"uniform-k5", 5, "uniform", 2},
		{"distance-k5", 5, "distance", 2},
		{"uniform-k1", 1, "uniform", 2},
		{"k-larger-than-n", 500, "uniform", 2},
		{"minkowski-p3", 7, "uniform", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, d := 120, 4
			x := make([][]float64, n)
			y := make([]int, n)
			for i := range x {
				row := make([]float64, d)
				for j := range row {
					// Quantized coordinates create many duplicate rows and
					// therefore exact distance ties.
					row[j] = float64(r.Intn(4))
				}
				x[i] = row
				y[i] = r.Intn(2)
			}
			knn := &KNN{params: Params{
				"n_neighbors": float64(tc.k), "weights": tc.weights, "p": tc.p,
			}}
			if err := knn.Fit(x, y, nil); err != nil {
				t.Fatal(err)
			}
			queries := make([][]float64, 40)
			for i := range queries {
				q := make([]float64, d)
				for j := range q {
					q[j] = float64(r.Intn(4))
				}
				queries[i] = q
			}
			got := knn.Predict(queries)
			want := referenceKNNPredict(knn, queries)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("query %d: heap selection %d, full sort %d", i, got[i], want[i])
				}
			}
		})
	}

	// The early-abandon Euclidean search over several tiles and checkpoints
	// (17 features, up to 700 rows). A third of the training rows are copies
	// of an earlier row with the other label, so the k-th distance is tied
	// exactly and the lowest index has to win; `special` puts NaN and ±Inf
	// in training rows and in queries.
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, n := range []int{1, 4, 5, 200, 700} {
		for _, hasSpecial := range []bool{false, true} {
			const d = 17
			x := make([][]float64, n)
			y := make([]int, n)
			for i := range x {
				if i >= 3 && i%3 == 0 {
					src := r.Intn(i)
					x[i], y[i] = slices.Clone(x[src]), 1-y[src]
					continue
				}
				x[i] = make([]float64, d)
				for j := range x[i] {
					x[i][j] = r.NormFloat64() + float64(4*(i%3))
				}
				y[i] = r.Intn(2)
				if hasSpecial && i%7 == 1 {
					x[i][r.Intn(d)] = special[r.Intn(3)]
				}
			}
			queries := make([][]float64, 257)
			for i := range queries {
				queries[i] = slices.Clone(x[r.Intn(n)])
				for j := range queries[i] {
					queries[i][j] += 0.5 * r.NormFloat64()
				}
				if hasSpecial && i%5 == 2 {
					queries[i][r.Intn(d)] = special[r.Intn(3)]
				}
			}
			for _, k := range []int{1, 5, n, n + 3} {
				for _, weights := range []string{"uniform", "distance"} {
					knn := &KNN{params: Params{"n_neighbors": float64(k), "weights": weights}}
					if err := knn.Fit(x, y, nil); err != nil {
						t.Fatal(err)
					}
					for _, batch := range [][][]float64{queries[:1], queries} {
						got := knn.Predict(batch)
						want := denseScanKNNPredict(knn, batch)
						if !slices.Equal(got, want) {
							t.Fatalf("n=%d special=%v k=%d %s, %d rows: search and dense scan disagree", n, hasSpecial, k, weights, len(batch))
						}
						if !hasSpecial && !slices.Equal(got, referenceKNNPredict(knn, batch)) {
							t.Fatalf("n=%d k=%d %s, %d rows: search and full sort disagree", n, k, weights, len(batch))
						}
					}
				}
			}
		}
	}
}

// TestKNNConcurrentPredict shares one fitted KNN between 8 goroutines that
// predict batches of mixed sizes: each call draws its own pooled heaps and
// survivor cells, so every answer must equal the serial one.
func TestKNNConcurrentPredict(t *testing.T) {
	x, y := benchData(600, 20)
	queries, _ := benchData(300, 20)
	knn := &KNN{params: Params{"n_neighbors": 7, "weights": "distance"}}
	if err := knn.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	want := knn.Predict(queries)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			size := []int{1, 31, 32, 33, 100, 257, 5, 64}[g]
			for round := 0; round < 6; round++ {
				for lo := 0; lo < len(queries); lo += size {
					hi := min(lo+size, len(queries))
					if got := knn.Predict(queries[lo:hi]); !slices.Equal(got, want[lo:hi]) {
						t.Errorf("goroutine %d: rows %d..%d differ from the serial predict", g, lo, hi)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
