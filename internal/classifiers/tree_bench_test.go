package classifiers

import (
	"sync"
	"testing"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

// The tree-fit benchmarks time one Fit of each tree learner at its default
// parameters, through FitWith and a presort shared by every fit on the
// matrix, as the service and the sweep fit. Two shapes: Sweep is the
// training split of the first corpus dataset under the quick profile
// (183 × 24, the sweep_quick scale), Serve is the training split of a
// serve_trees-sized `clusters` concept (1 600 × 32). Each
// learner and shape is its own top-level benchmark, so mlaas-perf's CV-gate
// rerun (an anchored -bench regex) can select it alone.

// treeFitData is one benchmark matrix and the presort every fit on it shares.
type treeFitData struct {
	x   [][]float64
	y   []int
	pre *Presort
}

func newTreeFitData(ds *dataset.Dataset, train float64) treeFitData {
	sp := ds.StratifiedSplit(train, rng.New(1))
	return treeFitData{x: sp.Train.X, y: sp.Train.Y, pre: NewPresort(sp.Train.X)}
}

var (
	treeFitSweep = sync.OnceValue(func() treeFitData {
		return newTreeFitData(synth.GenerateClean(synth.Corpus()[0], synth.Quick, synth.CorpusSeed), 0.7)
	})
	treeFitServe = sync.OnceValue(func() treeFitData {
		spec := synth.Spec{Name: "bench-clusters", Gen: synth.GenClusters, N: 2000, D: 32, Imbalance: 0.5}
		return newTreeFitData(synth.GenerateClean(spec, synth.Full, 1234), 0.8)
	})
)

func benchTreeFit(b *testing.B, data func() treeFitData, name string) {
	dt := data()
	fit := func() {
		clf, err := New(name, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := FitWith(clf, dt.x, dt.y, rng.New(7), dt.pre); err != nil {
			b.Fatal(err)
		}
	}
	fit() // the first fit builds the shared presort; the timed ones reuse it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fit()
	}
}

func BenchmarkTreeFitDtreeSweep(b *testing.B)        { benchTreeFit(b, treeFitSweep, "dtree") }
func BenchmarkTreeFitBaggingSweep(b *testing.B)      { benchTreeFit(b, treeFitSweep, "bagging") }
func BenchmarkTreeFitRandomForestSweep(b *testing.B) { benchTreeFit(b, treeFitSweep, "randomforest") }
func BenchmarkTreeFitBoostedSweep(b *testing.B)      { benchTreeFit(b, treeFitSweep, "boosted") }
func BenchmarkTreeFitJungleSweep(b *testing.B)       { benchTreeFit(b, treeFitSweep, "jungle") }
func BenchmarkTreeFitDtreeServe(b *testing.B)        { benchTreeFit(b, treeFitServe, "dtree") }
func BenchmarkTreeFitBaggingServe(b *testing.B)      { benchTreeFit(b, treeFitServe, "bagging") }
func BenchmarkTreeFitRandomForestServe(b *testing.B) { benchTreeFit(b, treeFitServe, "randomforest") }
func BenchmarkTreeFitBoostedServe(b *testing.B)      { benchTreeFit(b, treeFitServe, "boosted") }
func BenchmarkTreeFitJungleServe(b *testing.B)       { benchTreeFit(b, treeFitServe, "jungle") }
