package classifiers

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"mlaasbench/internal/raceflag"
	"mlaasbench/internal/rng"
)

// pooledLearners are the tree-family configs whose growth memory comes from
// treeMemPool or dagMemPool.
var pooledLearners = []struct {
	name   string
	params Params
}{
	{"dtree", Params{}},
	{"bagging", Params{"n_estimators": 5}},
	{"randomforest", Params{"n_estimators": 5}},
	{"randomforest", Params{"n_estimators": 5, "resampling": "replicate", "random_splits": 4}},
	{"boosted", Params{"n_estimators": 8}},
	{"jungle", Params{"n_dags": 4}},
}

// A fit's mem may have grown for another matrix: a fit on a small matrix,
// then on a larger one of another shape, then on the small one again must
// give the first fit's bytes, serially and from concurrent goroutines.
func TestPooledTreeFitsByteIdentical(t *testing.T) {
	small, smallY := presortData()      // 150 × 5
	large, largeY := benchData(600, 17) // more rows and columns
	fit := func(name string, params Params, x [][]float64, y []int) ([]byte, error) {
		clf, err := New(name, params)
		if err != nil {
			return nil, err
		}
		if err := clf.Fit(x, y, rng.New(5)); err != nil {
			return nil, err
		}
		return AppendFitted(nil, clf)
	}
	want := make([][]byte, len(pooledLearners))
	func() {
		// One P, so the three fits share one pool slot.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for i, lc := range pooledLearners {
			var err error
			if want[i], err = fit(lc.name, lc.params, small, smallY); err != nil {
				t.Fatal(err)
			}
			if _, err := fit(lc.name, lc.params, large, largeY); err != nil {
				t.Fatal(err)
			}
			got, err := fit(lc.name, lc.params, small, smallY)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("%s %v: a fit after a larger one differs from the first fit", lc.name, lc.params)
			}
		}
	}()

	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, lc := range pooledLearners {
					x, y := small, smallY
					if (g+round)%2 == 1 {
						x, y = large, largeY
					}
					got, err := fit(lc.name, lc.params, x, y)
					if err != nil {
						t.Error(err)
						return
					}
					if (g+round)%2 == 0 && !bytes.Equal(got, want[i]) {
						t.Errorf("goroutine %d: %s %v differs from the serial fit", g, lc.name, lc.params)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTreeFitAllocatesOnlyTheModel: with the growth memory pooled and the
// presort shared, a steady-state dtree fit allocates its nodes and a jungle
// fit its DAGs and their levels, plus a few fixed objects (the RNG).
func TestTreeFitAllocatesOnlyTheModel(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dt := treeFitSweep() // 183 × 24
	for _, tc := range []struct {
		name  string
		parts func(Classifier) int // the model's allocated parts
	}{
		{"dtree", func(c Classifier) int { return countNodes(c.(*DecisionTree).root) }},
		{"jungle", func(c Classifier) int {
			n := 0
			for _, dag := range c.(*DecisionJungle).dags {
				n += 2 + len(dag.levels) // the dagModel, its levels and each level
			}
			return n + 1 // the dags
		}},
	} {
		clf, err := New(tc.name, nil)
		if err != nil {
			t.Fatal(err)
		}
		fit := func() {
			if err := FitWith(clf, dt.x, dt.y, rng.New(7), dt.pre); err != nil {
				t.Fatal(err)
			}
		}
		fit() // builds the presort and warms the pool
		allocs := testing.AllocsPerRun(20, fit)
		parts := tc.parts(clf)
		t.Logf("%s: %.0f allocations per fit, model has %d parts", tc.name, allocs, parts)
		if limit := float64(parts + 4); allocs > limit {
			t.Errorf("%s: %.0f allocations per fit, want <= %.0f (%d model parts + 4)", tc.name, allocs, limit, parts)
		}
	}
}

func countNodes(n *treeNode) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}
