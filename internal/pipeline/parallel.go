package pipeline

import (
	"runtime"
	"sync"
)

// minRowsPerShard floors the per-goroutine work: batches smaller than this
// never split, and larger ones get at most one shard per minRowsPerShard
// rows, so goroutine overhead can't exceed the compute it parallelizes.
const minRowsPerShard = 16

// ShardCount resolves the effective number of shards for a batch of the
// given row count: shards <= 0 means one per CPU (the server's
// -predict-shards default), then capped so every shard has at least
// minRowsPerShard rows.
func ShardCount(rows, shards int) int {
	if shards <= 0 {
		shards = runtime.NumCPU()
	}
	if maxUseful := (rows + minRowsPerShard - 1) / minRowsPerShard; shards > maxUseful {
		shards = maxUseful
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// PredictSharded labels points by fanning contiguous row ranges of the
// batch across ShardCount(len(points), shards) goroutines and stitching the
// results back in input order. Classifier predictions are row-independent
// and each shard writes a disjoint range of the output, so the result is
// byte-identical to predict(points) at any shard count (asserted by
// TestParallelPredictMatchesSerial); with one shard it IS the serial call.
// predict must be safe for concurrent read-only use, which every fitted
// classifier's Predict is. Every shard goroutine is joined before the
// function returns: callers hand in rows they reuse straight afterwards
// (the predict handler's pooled frame buffers), so no shard may still be
// reading points once the labels are back.
func PredictSharded(predict func([][]float64) []int, points [][]float64, shards int) []int {
	n := len(points)
	ns := ShardCount(n, shards)
	if ns <= 1 {
		return predict(points)
	}
	out := make([]int, n)
	chunk := (n + ns - 1) / ns
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			copy(out[lo:hi], predict(points[lo:hi]))
		}(lo, hi)
	}
	wg.Wait()
	return out
}
