package classifiers

import (
	"testing"

	"mlaasbench/internal/preprocess"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

// The forward-pass benchmarks behind BENCH_PR5.json. They use only the
// public Fit/Predict surface so the same file runs unmodified against trees
// that predate the batch-kernel layer — that is how the interleaved A/B
// comparison is produced.

func benchData(n, d int) ([][]float64, []int) {
	r := rng.New(1234)
	x := make([][]float64, n)
	y := make([]int, n)
	backing := make([]float64, n*d)
	for i := range x {
		row := backing[i*d : (i+1)*d]
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

// BenchmarkMLPForwardBatch measures a 512-row batched predict against a
// fitted 32-unit MLP — the serving forward pass after PR 3's fit-once split.
func BenchmarkMLPForwardBatch(b *testing.B) {
	x, y := benchData(512, 24)
	m := &MLP{params: Params{"hidden": 32, "max_iter": 4}}
	if err := m.Fit(x, y, rng.New(7)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(x)
	}
}

// BenchmarkKNNPredictBatch measures a 256-query batched predict against a
// 2048-row training set under the default Euclidean metric.
func BenchmarkKNNPredictBatch(b *testing.B) {
	x, y := benchData(2048, 24)
	k := &KNN{params: Params{"n_neighbors": 5}}
	if err := k.Fit(x, y, rng.New(7)); err != nil {
		b.Fatal(err)
	}
	queries, _ := benchData(256, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Predict(queries)
	}
}

// clusteredData is the serve_dense shape: a 2 000 × 32 `clusters` concept
// split 1 600 train / 256 queries, both through a standard scaler fitted on
// the training part.
func clusteredData() (xTr [][]float64, yTr []int, queries [][]float64) {
	ds := synth.GenerateClean(synth.Spec{Name: "bench-clusters", Gen: synth.GenClusters, N: 2000, D: 32, Imbalance: 0.5}, synth.Full, 1234)
	var sc preprocess.Standard
	sc.Fit(ds.X[:1600])
	return sc.Transform(ds.X[:1600]), ds.Y[:1600], sc.Transform(ds.X[1600:1856])
}

// BenchmarkKNNPredictBatchClustered is BenchmarkKNNPredictBatch on
// structured data, the side of the early-abandon search where most rows
// leave at the first checkpoint; the i.i.d. benchmark above is the other.
func BenchmarkKNNPredictBatchClustered(b *testing.B) {
	x, y, queries := clusteredData()
	k := &KNN{params: Params{"n_neighbors": 5}}
	if err := k.Fit(x, y, rng.New(7)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Predict(queries)
	}
}
