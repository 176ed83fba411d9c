package classifiers

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"

	"mlaasbench/internal/rng"
)

// presortLearners are the tree learners that fit from a column presort,
// with both of the forest's resampling modes.
var presortLearners = []struct {
	name   string
	params Params
}{
	{"dtree", Params{}},
	{"dtree", Params{"max_features": "sqrt", "criterion": "entropy"}},
	{"bagging", Params{"n_estimators": 5}},
	{"randomforest", Params{"n_estimators": 5, "resampling": "bagging"}},
	{"randomforest", Params{"n_estimators": 5, "resampling": "replicate", "random_splits": 4}},
	{"boosted", Params{"n_estimators": 8}},
}

// presortData is a 150 × 5 matrix with repeated values (ties exercise the
// (value, index) order) and a non-linear concept.
func presortData() ([][]float64, []int) {
	r := rng.New(17)
	x := make([][]float64, 150)
	y := make([]int, len(x))
	for i := range x {
		row := make([]float64, 5)
		for j := range row {
			row[j] = math.Round(r.NormFloat64()*4) / 4
		}
		if row[0]*row[1]+row[2] > 0 {
			y[i] = 1
		}
		x[i] = row
	}
	return x, y
}

// fitArtifact fits a fresh learner through fit and returns its MLMF bytes
// and its labels on x.
func fitArtifact(t *testing.T, name string, params Params, x [][]float64, fit func(Classifier) error) ([]byte, []int) {
	t.Helper()
	clf, err := New(name, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := fit(clf); err != nil {
		t.Fatal(err)
	}
	b, err := AppendFitted(nil, clf)
	if err != nil {
		t.Fatal(err)
	}
	return b, clf.Predict(x)
}

// A fit through a shared presort — first use, reuse, or a presort of some
// other matrix — must produce the plain Fit's artifact byte for byte.
func TestPresortFitWithMatchesFit(t *testing.T) {
	x, y := presortData()
	// Same length, other values: used by mistake it would grow other trees.
	other := make([][]float64, len(x))
	for i, row := range x {
		other[i] = []float64{-row[4], row[3], -row[2], row[1], -row[0]}
	}
	for _, lc := range presortLearners {
		for seed := uint64(1); seed <= 2; seed++ {
			wantB, wantL := fitArtifact(t, lc.name, lc.params, x, func(c Classifier) error { return c.Fit(x, y, rng.New(seed)) })
			shared := NewPresort(x)
			foreign := NewPresort(other)
			foreign.of(other) // built, so only the guard keeps it out
			prefix := NewPresort(x[:len(x)-1])
			cases := []struct {
				what string
				p    *Presort
			}{
				{"nil presort", nil},
				{"shared, first use", shared},
				{"shared, reused", shared},
				{"presort of another matrix", foreign},
				{"presort of a prefix", prefix},
			}
			for _, c := range cases {
				gotB, gotL := fitArtifact(t, lc.name, lc.params, x, func(clf Classifier) error { return FitWith(clf, x, y, rng.New(seed), c.p) })
				if !bytes.Equal(gotB, wantB) || !slices.Equal(gotL, wantL) {
					t.Fatalf("%s %v seed %d, %s: artifact or labels differ from Fit", lc.name, lc.params, seed, c.what)
				}
			}
			if foreign.pre == nil || shared.pre == nil || prefix.pre != nil {
				t.Fatalf("%s: presort built state: shared %v foreign %v prefix %v", lc.name, shared.pre != nil, foreign.pre != nil, prefix.pre != nil)
			}
		}
	}
}

// FitWith on a learner without a presort path is plain Fit.
func TestPresortIgnoredByOtherLearners(t *testing.T) {
	x, y := presortData()
	p := NewPresort(x)
	want, _ := fitArtifact(t, "logreg", Params{}, x, func(c Classifier) error { return c.Fit(x, y, rng.New(3)) })
	got, _ := fitArtifact(t, "logreg", Params{}, x, func(c Classifier) error { return FitWith(c, x, y, rng.New(3), p) })
	if !bytes.Equal(got, want) {
		t.Fatal("logreg artifact differs through FitWith")
	}
	if p.pre != nil {
		t.Fatal("a logreg fit built the presort")
	}
}

// Eight goroutines fitting on one unbuilt presort build it once and each
// get the plain Fit's artifact (run under -race by make race).
func TestPresortConcurrentFits(t *testing.T) {
	x, y := presortData()
	const workers = 8
	want := make([][]byte, workers)
	for g := range want {
		lc := presortLearners[g%len(presortLearners)]
		want[g], _ = fitArtifact(t, lc.name, lc.params, x, func(c Classifier) error { return c.Fit(x, y, rng.New(uint64(g))) })
	}
	p := NewPresort(x)
	got := make([][]byte, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lc := presortLearners[g%len(presortLearners)]
			clf, err := New(lc.name, lc.params)
			if err != nil {
				t.Error(err)
				return
			}
			if err := FitWith(clf, x, y, rng.New(uint64(g)), p); err != nil {
				t.Error(err)
				return
			}
			got[g], _ = AppendFitted(nil, clf)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if !bytes.Equal(got[g], want[g]) {
			t.Fatalf("goroutine %d: artifact differs from Fit", g)
		}
	}
	if p.of(x) != p.pre {
		t.Fatal("presort rebuilt after first use")
	}
}
