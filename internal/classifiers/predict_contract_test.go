package classifiers

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"mlaasbench/internal/raceflag"
	"mlaasbench/internal/rng"
)

func cloneRows(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = slices.Clone(row)
	}
	return out
}

// TestPredictDoesNotRetainInput is the contract the serving path's pooled
// frame buffers rely on: Predict neither mutates its input nor keeps a
// reference to it. Predict, check the input is untouched, scribble over it
// (as the next decoded frame would), predict a saved copy again: the labels
// must be identical, and the first call's labels must not have moved.
func TestPredictDoesNotRetainInput(t *testing.T) {
	xTr, yTr := makeCircles(240, 11)
	queries, _ := makeCircles(96, 12)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			clf, err := New(name, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := clf.Fit(cloneRows(xTr), slices.Clone(yTr), rng.New(5)); err != nil {
				t.Fatal(err)
			}
			in := cloneRows(queries)
			first := clf.Predict(in)
			firstCopy := slices.Clone(first)
			for i := range in {
				if !slices.Equal(in[i], queries[i]) {
					t.Fatalf("Predict mutated input row %d", i)
				}
				for j := range in[i] {
					in[i][j] = math.NaN()
				}
			}
			second := clf.Predict(cloneRows(queries))
			if !slices.Equal(second, firstCopy) {
				t.Fatal("labels changed after the first call's input was overwritten")
			}
			if !slices.Equal(first, firstCopy) {
				t.Fatal("the first call's labels changed during the second call")
			}
		})
	}
}

// TestPredictScratchAllocs: kNN's heaps and survivor cells and MLP's row
// blocks come from the scratch pools, and naive Bayes reads per-feature terms
// derived at fit time, so a steady-state Predict allocates its label
// slice plus a handful of small fixed objects — the same count at 256 and
// 1024 rows, and bytes in proportion to the labels, not to the batch or the
// training set.
func TestPredictScratchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	// One P, as testing.AllocsPerRun does for itself: a pooled buffer sits
	// in the P-private slot, which a goroutine that migrates cannot reach.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	xTr, yTr := benchData(1600, 32)
	for _, clf := range []Classifier{
		&KNN{params: Params{"n_neighbors": 5}},
		&MLP{params: Params{"hidden": 32, "max_iter": 2}},
		&NaiveBayes{},
	} {
		if err := clf.Fit(xTr, yTr, rng.New(7)); err != nil {
			t.Fatal(err)
		}
		var counts []float64
		for _, rows := range []int{256, 1024} {
			q, _ := benchData(rows, 32)
			clf.Predict(q) // warm the pool at this shape
			n := testing.AllocsPerRun(10, func() { clf.Predict(q) })
			counts = append(counts, n)

			const calls = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				clf.Predict(q)
			}
			runtime.ReadMemStats(&after)
			perCall := (after.TotalAlloc - before.TotalAlloc) / calls
			if limit := uint64(8*rows + 1024); perCall > limit {
				t.Errorf("%s: %d rows: %d bytes per Predict, want <= %d (labels + O(1))", clf.Name(), rows, perCall, limit)
			}
		}
		if counts[0] != counts[1] || counts[0] > 6 {
			t.Errorf("%s: %v allocations per Predict at 256/1024 rows, want equal and <= 6", clf.Name(), counts)
		}
	}
}
