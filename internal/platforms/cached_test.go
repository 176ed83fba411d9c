package platforms

import (
	"context"
	"reflect"
	"testing"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/rng"
)

func cachedTestSplit(t *testing.T) dataset.Split {
	t.Helper()
	r := rng.New(21)
	n, d := 90, 5
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		if row[0]-row[2] > 0 {
			y[i] = 1
		}
		x[i] = row
	}
	ds := &dataset.Dataset{Name: "cached-test", X: x, Y: y}
	return ds.StratifiedSplit(0.7, rng.New(22))
}

// RunCtx with a cache must be observationally identical to Run on every
// platform — the cache removes redundant fitting, nothing else. Amazon
// matters most here: its override must preserve the hidden binning.
func TestRunCachedMatchesRun(t *testing.T) {
	sp := cachedTestSplit(t)
	for _, p := range All() {
		name := p.Name()
		cache := pipeline.NewFeatCache()
		configs := pipeline.Enumerate(p.Surface())
		if len(configs) > 12 {
			configs = configs[:12]
		}
		if len(configs) == 0 {
			configs = []pipeline.Config{{}} // black boxes take only the data
		}
		for _, cfg := range configs {
			want, err := p.Run(cfg, sp.Train, sp.Test, 5)
			if err != nil {
				t.Fatalf("%s %s: %v", name, cfg, err)
			}
			// The second pass hits the cache.
			for pass := 0; pass < 2; pass++ {
				got, err := p.RunCtx(context.Background(), cfg, sp.Train, sp.Test, 5, cache)
				if err != nil {
					t.Fatalf("%s %s cached: %v", name, cfg, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s %s pass %d: cached result differs from Run", name, cfg, pass)
				}
			}
		}
	}
}
