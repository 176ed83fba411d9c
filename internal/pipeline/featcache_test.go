package pipeline

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/rng"
)

func cacheTestSplit(t *testing.T) (train, test *dataset.Dataset) {
	t.Helper()
	r := rng.New(7)
	gen := func(name string, n int) *dataset.Dataset {
		x := make([][]float64, n)
		y := make([]int, n)
		for i := range x {
			row := make([]float64, 6)
			for j := range row {
				row[j] = r.NormFloat64()
			}
			if row[0]+row[1] > 0 {
				y[i] = 1
			}
			x[i] = row
		}
		return &dataset.Dataset{Name: name, X: x, Y: y}
	}
	return gen("cache-train", 80), gen("cache-test", 30)
}

// Every FEAT kind must transform identically through the cache and without
// it — the cache removes redundant fitting, never changes the fit.
func TestFeatCacheMatchesDirectApply(t *testing.T) {
	train, test := cacheTestSplit(t)
	feats := []Feat{
		{Kind: "none"},
		{Kind: "scaler", Name: "standard"},
		{Kind: "scaler", Name: "minmax"},
		{Kind: "filter", Name: "mutual"},
		{Kind: "fisherlda"},
	}
	cache := NewFeatCache()
	for _, f := range feats {
		wantTr, wantTe, err := applyFeat(context.Background(), f, train, test)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		// A nil cache computes afresh every call.
		var uncached *FeatCache
		if gotTr, gotTe, err := uncached.Transform(context.Background(), f, train, test); err != nil ||
			!reflect.DeepEqual(gotTr, wantTr) || !reflect.DeepEqual(gotTe, wantTe) {
			t.Fatalf("%s: nil cache differs from direct (err %v)", f, err)
		}
		for round := 0; round < 3; round++ {
			gotTr, gotTe, err := cache.Transform(context.Background(), f, train, test)
			if err != nil {
				t.Fatalf("%s round %d: %v", f, round, err)
			}
			if !reflect.DeepEqual(gotTr, wantTr) || !reflect.DeepEqual(gotTe, wantTe) {
				t.Fatalf("%s round %d: cached transform differs from direct", f, round)
			}
		}
	}
}

// Full pipeline equivalence: Run with a cache must score identically to Run
// without one for every FEAT option, repeatedly (hits and misses alike).
func TestRunWithCacheMatchesRun(t *testing.T) {
	train, test := cacheTestSplit(t)
	cache := NewFeatCache()
	for _, f := range []Feat{{Kind: "none"}, {Kind: "scaler", Name: "standard"}, {Kind: "filter", Name: "fisher"}, {Kind: "fisherlda"}} {
		cfg := Config{Feat: f, Classifier: "logreg", Params: map[string]any{}}
		want, err := Run(context.Background(), cfg, train, test, rng.New(3), nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), cfg, train, test, rng.New(3), cache)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: cached result differs:\n  want %+v\n  got  %+v", f, want, got)
		}
	}
}

// Concurrent lookups of the same option must fit exactly once and all
// receive the same matrices (singleflight semantics, race-clean).
func TestFeatCacheConcurrentSingleFit(t *testing.T) {
	train, test := cacheTestSplit(t)
	cache := NewFeatCache()
	var fits atomic.Int64
	_, err := cache.Memo("probe", func() (any, error) { fits.Add(1); return "x", nil })
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	results := make([][][]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			xTr, _, err := cache.Transform(context.Background(), Feat{Kind: "scaler", Name: "standard"}, train, test)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = xTr
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		// Same backing slice, not merely equal values: one fit shared.
		if &results[g][0][0] != &results[0][0][0] {
			t.Fatalf("goroutine %d received a distinct fit", g)
		}
	}

	for i := 0; i < 10; i++ {
		if _, err := cache.Memo("probe", func() (any, error) { fits.Add(1); return "x", nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := fits.Load(); n != 1 {
		t.Fatalf("Memo computed %d times, want 1", n)
	}
}

// Errors memoize too: a failing option fails every lookup without re-running.
func TestFeatCacheMemoizesErrors(t *testing.T) {
	train, test := cacheTestSplit(t)
	cache := NewFeatCache()
	bad := Feat{Kind: "filter", Name: "no-such-method"}
	_, _, err1 := cache.Transform(context.Background(), bad, train, test)
	_, _, err2 := cache.Transform(context.Background(), bad, train, test)
	if err1 == nil || err2 == nil {
		t.Fatal("expected errors for unknown filter")
	}
	if !errors.Is(err2, err1) && err1.Error() != err2.Error() {
		t.Fatalf("errors differ: %v vs %v", err1, err2)
	}
}
