package service_test

import (
	"context"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"mlaasbench/internal/client"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/service"
	"mlaasbench/internal/synth"
)

// TestConcurrentBinaryPredictsReuseBuffers drives the pooled decode path
// the way it can go wrong: eight goroutines predicting on one model with
// batches of mixed shapes, as one frame or as many, so frame Readers, their
// row buffers, response buffers and the classifier's scratch tiles are
// handed from request to request mid-flight, with every forward pass fanned
// over four shard goroutines. Every response must equal the JSON-codec
// answer for its own batch — a Reader shared by two requests, rows read
// after their frame was overwritten, or a stale tail from a bigger frame
// would all change labels. Run with -race -count=10.
func TestConcurrentBinaryPredictsReuseBuffers(t *testing.T) {
	ds := synth.GenerateClean(synth.Spec{Name: "reuse", Gen: synth.GenClusters, N: 400, D: 6, Noise: 0.3}, synth.Quick, 3)
	sp := ds.StratifiedSplit(0.7, rng.New(4))
	s := service.NewServer(func(string, ...any) {}).WithPredictShards(4)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ctx := context.Background()
	jsonC := client.New(srv.URL)
	mID := trainOn(t, jsonC, "local", pipeline.Config{Classifier: "knn", Params: map[string]any{"n_neighbors": 3}}, sp)

	// Distinct batches per shape, so an answer computed from another
	// request's rows is a wrong answer.
	r := rng.New(8).Split("reuse/queries")
	var batches [][][]float64
	var want [][]int
	for _, rows := range []int{1, 3, 17, 64, 200, 513} {
		b := make([][]float64, rows)
		for i := range b {
			b[i] = slices.Clone(sp.Test.X[r.Intn(len(sp.Test.X))])
			b[i][r.Intn(len(b[i]))] += r.Normal(0, 0.5)
		}
		labels, err := jsonC.Predict(ctx, "local", mID, b)
		if err != nil {
			t.Fatalf("json predict of %d rows: %v", rows, err)
		}
		batches, want = append(batches, b), append(want, labels)
	}

	const goroutines, rounds = 8, 24
	frameRows := []int{0, 1, 7, 64} // 0 = one frame; the rest stream several
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			binC := client.New(srv.URL).WithCodec(client.CodecBinary)
			for i := 0; i < rounds; i++ {
				b := (g + i) % len(batches)
				chunk := frameRows[(g*3+i)%len(frameRows)]
				var got []int
				var err error
				if chunk == 0 {
					got, err = binC.Predict(ctx, "local", mID, batches[b])
				} else {
					got, err = binC.PredictBatched(ctx, "local", mID, batches[b], chunk)
				}
				if err != nil {
					t.Errorf("goroutine %d round %d: %d rows in frames of %d: %v", g, i, len(batches[b]), chunk, err)
					return
				}
				if !slices.Equal(got, want[b]) {
					t.Errorf("goroutine %d round %d: %d rows in frames of %d: labels differ from the JSON answer", g, i, len(batches[b]), chunk)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
