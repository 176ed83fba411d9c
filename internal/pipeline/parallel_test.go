package pipeline

import (
	"context"
	"testing"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/rng"
)

func shardTestData(n, d int) ([][]float64, []int) {
	r := rng.New(99)
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		x[i] = row
		if r.Float64() > 0.5 {
			y[i] = 1
		}
	}
	return x, y
}

// TestParallelPredictMatchesSerial fits every predict-hot classifier and
// asserts PredictSharded returns byte-identical predictions to the plain
// Predict call at every shard count — including counts far above the row
// budget. Runs under -race via the Makefile race target, which also proves
// the fitted models tolerate concurrent read-only use.
func TestParallelPredictMatchesSerial(t *testing.T) {
	xTr, yTr := shardTestData(160, 8)
	queries, _ := shardTestData(333, 8)
	for _, name := range []string{"mlp", "knn", "lda", "logreg"} {
		t.Run(name, func(t *testing.T) {
			clf, err := classifiers.New(name, classifiers.Params{})
			if err != nil {
				t.Fatal(err)
			}
			if err := clf.Fit(xTr, yTr, rng.New(5)); err != nil {
				t.Fatal(err)
			}
			want := clf.Predict(queries)
			for _, shards := range []int{0, 1, 2, 3, 7, 16, 1000} {
				got := PredictSharded(clf.Predict, queries, shards)
				if len(got) != len(want) {
					t.Fatalf("shards=%d: %d predictions, want %d", shards, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("shards=%d: prediction %d = %d, want %d", shards, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestPredictShardsContext checks the context plumbing RunCtx's predict
// stage reads, including the serial default.
func TestPredictShardsContext(t *testing.T) {
	ctx := context.Background()
	if got := PredictShardsFrom(ctx); got != 1 {
		t.Fatalf("default shards = %d, want 1", got)
	}
	if got := PredictShardsFrom(WithPredictShards(ctx, 6)); got != 6 {
		t.Fatalf("shards = %d, want 6", got)
	}
}

func TestShardCount(t *testing.T) {
	cases := []struct{ rows, shards, want int }{
		{0, 4, 1},     // empty batch never splits
		{1, 4, 1},     // nor does a single row
		{16, 4, 1},    // one minRowsPerShard quantum → serial
		{17, 4, 2},    // just over one quantum
		{1000, 4, 4},  // plenty of rows: requested count wins
		{1000, 1, 1},  // explicit serial
		{40, 1000, 3}, // capped at ceil(rows/minRowsPerShard)
		{-5, 3, 1},    // nonsense row counts degrade to serial
	}
	for _, c := range cases {
		if got := ShardCount(c.rows, c.shards); got != c.want {
			t.Errorf("ShardCount(%d, %d) = %d, want %d", c.rows, c.shards, got, c.want)
		}
	}
	// shards <= 0 follows the scheduler convention: one per CPU, still
	// subject to the per-shard row floor.
	if got := ShardCount(16, 0); got != 1 {
		t.Errorf("ShardCount(16, 0) = %d, want 1", got)
	}
	if got := ShardCount(100000, 0); got < 1 {
		t.Errorf("ShardCount(100000, 0) = %d, want >= 1", got)
	}
}

// TestPredictShardedCoversAllRows uses an index-echo predictor to prove
// every row is labeled exactly once and stitched in input order.
func TestPredictShardedCoversAllRows(t *testing.T) {
	const n = 777
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{float64(i)}
	}
	echo := func(pts [][]float64) []int {
		out := make([]int, len(pts))
		for i, p := range pts {
			out[i] = int(p[0])
		}
		return out
	}
	for _, shards := range []int{1, 2, 5, 48} {
		got := PredictSharded(echo, points, shards)
		for i, v := range got {
			if v != i {
				t.Fatalf("shards=%d: row %d labeled %d", shards, i, v)
			}
		}
	}
	if got := PredictSharded(echo, nil, 8); len(got) != 0 {
		t.Fatalf("empty batch returned %d labels", len(got))
	}
}
