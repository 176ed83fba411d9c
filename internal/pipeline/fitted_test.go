package pipeline

import (
	"context"
	"math"
	"sync"
	"testing"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/featsel"
	"mlaasbench/internal/preprocess"
	"mlaasbench/internal/raceflag"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

// servingShape is the serve_dense data: a 2 000 × 32 `clusters` concept
// split 1 600 training rows / 256 queries.
func servingShape() (train *dataset.Dataset, queries [][]float64) {
	ds := synth.GenerateClean(synth.Spec{Name: "serve-clusters", Gen: synth.GenClusters, N: 2000, D: 32, Imbalance: 0.5}, synth.Full, 1234)
	train = &dataset.Dataset{Name: ds.Name, X: ds.X[:1600], Y: ds.Y[:1600]}
	return train, ds.X[1600:1856]
}

// everyFeat lists every FEAT option the surfaces can name: none, each
// scaler, each filter method and the Fisher-LDA projection.
func everyFeat() []Feat {
	feats := []Feat{{Kind: "none"}, {Kind: "fisherlda"}}
	for _, name := range append(preprocess.Names(), "identity", "binning") {
		feats = append(feats, Feat{Kind: "scaler", Name: name})
	}
	for _, name := range featsel.Names() {
		feats = append(feats, Feat{Kind: "filter", Name: name})
	}
	return feats
}

func fitServing(t testing.TB, feat Feat, clf string, train *dataset.Dataset) *FittedPipeline {
	t.Helper()
	cfg := Config{Feat: feat, Classifier: clf, Params: classifiers.Params{}}
	fp, err := Fit(context.Background(), cfg, train, rng.New(11), nil)
	if err != nil {
		t.Fatalf("%s: %v", cfg, err)
	}
	return fp
}

func sameLabels(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: label %d = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// TestPooledPredictMatchesOracle: for every FEAT option, the pooled
// forward pass labels what the classifier labels on the owned-copy
// transform, leaves its input bit-for-bit unchanged, and keeps both true
// when four clients predict at once through four shards each (the race
// detector runs this package in full).
func TestPooledPredictMatchesOracle(t *testing.T) {
	train, queries := servingShape()
	bits := make([][]uint64, len(queries))
	for i, row := range queries {
		for _, v := range row {
			bits[i] = append(bits[i], math.Float64bits(v))
		}
	}
	untouched := func(what string) {
		t.Helper()
		for i, row := range queries {
			for j, v := range row {
				if math.Float64bits(v) != bits[i][j] {
					t.Fatalf("%s modified input [%d][%d]", what, i, j)
				}
			}
		}
	}
	for _, feat := range everyFeat() {
		t.Run(feat.String(), func(t *testing.T) {
			fp := fitServing(t, feat, "logreg", train)
			want := fp.clf.Predict(fp.transform.Apply(queries))
			untouched("Apply")
			sameLabels(t, "PredictCtx", fp.PredictCtx(context.Background(), queries), want)
			untouched("PredictCtx")
			var wg sync.WaitGroup
			got := make([][]int, 4)
			for c := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[c] = PredictSharded(fp.Predict, queries, 4)
				}()
			}
			wg.Wait()
			for _, labels := range got {
				sameLabels(t, "PredictSharded", labels, want)
			}
			untouched("PredictSharded")
		})
	}
}

// TestScaledPredictAllocatesLikeUnscaled pins the pooled FEAT apply: on a
// 256 × 32 batch, a logreg behind a standard scaler or a filter allocates no
// more times per predict than the same logreg with no FEAT, so a copy of the
// batch on the forward path fails here.
func TestScaledPredictAllocatesLikeUnscaled(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	train, queries := servingShape()
	allocs := func(feat Feat) float64 {
		fp := fitServing(t, feat, "logreg", train)
		return testing.AllocsPerRun(50, func() { fp.Predict(queries) })
	}
	none := allocs(Feat{Kind: "none"})
	for _, feat := range []Feat{{Kind: "scaler", Name: "standard"}, {Kind: "filter", Name: "pearson"}} {
		if n := allocs(feat); n > none {
			t.Errorf("%s logreg predict allocates %v times, FEAT none %v", feat, n, none)
		}
	}
}

// benchmarkFittedPredict measures one 256-row forward pass of a fitted
// logreg behind feat at the serve_dense shape.
func benchmarkFittedPredict(b *testing.B, feat Feat) {
	train, queries := servingShape()
	fp := fitServing(b, feat, "logreg", train)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fp.Predict(queries)
	}
}

// BenchmarkFittedPredictScaled is a standard-scaled logreg predict, the
// FEAT of serve_dense's scaled models.
func BenchmarkFittedPredictScaled(b *testing.B) {
	benchmarkFittedPredict(b, Feat{Kind: "scaler", Name: "standard"})
}

// BenchmarkFittedPredictFiltered is the same predict behind a Pearson
// filter, which gathers half the columns.
func BenchmarkFittedPredictFiltered(b *testing.B) {
	benchmarkFittedPredict(b, Feat{Kind: "filter", Name: "pearson"})
}

// TestPutScratchDropsOversize: a scratch grown past maxPooledScratchBytes
// is left to the collector, never handed out again.
func TestPutScratchDropsOversize(t *testing.T) {
	big := &preprocess.Scratch{}
	preprocess.TransformInto(big, &preprocess.Identity{}, [][]float64{make([]float64, maxPooledScratchBytes/8)})
	PutScratch(big)
	for i := 0; i < 4; i++ {
		if s := GetScratch(); s == big {
			t.Fatal("oversize scratch came back from the pool")
		}
	}
}
