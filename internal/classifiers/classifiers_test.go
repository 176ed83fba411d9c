package classifiers

import (
	"math"
	"testing"

	"mlaasbench/internal/rng"
)

// makeLinear builds a well-separated linear problem.
func makeLinear(n int, seed uint64) ([][]float64, []int) {
	r := rng.New(seed)
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		shift := -1.5
		if cls == 1 {
			shift = 1.5
		}
		x[i] = []float64{shift + r.NormFloat64()*0.5, shift + r.NormFloat64()*0.5, r.NormFloat64()}
		y[i] = cls
	}
	return x, y
}

// makeCircles builds the concentric-circles problem no linear model solves.
func makeCircles(n int, seed uint64) ([][]float64, []int) {
	r := rng.New(seed)
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		radius := 1.0
		if cls == 1 {
			radius = 0.4
		}
		theta := 2 * math.Pi * r.Float64()
		x[i] = []float64{radius*math.Cos(theta) + r.NormFloat64()*0.05, radius*math.Sin(theta) + r.NormFloat64()*0.05}
		y[i] = cls
	}
	return x, y
}

// makeXOR builds the checkerboard problem.
func makeXOR(n int, seed uint64) ([][]float64, []int) {
	r := rng.New(seed)
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := r.Uniform(-1, 1), r.Uniform(-1, 1)
		cls := 0
		if (a > 0) != (b > 0) {
			cls = 1
		}
		x[i] = []float64{a, b}
		y[i] = cls
	}
	return x, y
}

func accuracy(yTrue, yPred []int) float64 {
	correct := 0
	for i := range yTrue {
		if yTrue[i] == yPred[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(yTrue))
}

func trainEval(t *testing.T, name string, params Params, xTr [][]float64, yTr []int, xTe [][]float64, yTe []int) float64 {
	t.Helper()
	clf, err := New(name, params)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := clf.Fit(xTr, yTr, rng.New(99)); err != nil {
		t.Fatalf("%s: fit: %v", name, err)
	}
	pred := clf.Predict(xTe)
	if len(pred) != len(xTe) {
		t.Fatalf("%s: %d predictions for %d rows", name, len(pred), len(xTe))
	}
	return accuracy(yTe, pred)
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"bagging", "boosted", "bpm", "dtree", "jungle", "knn", "lda", "logreg", "mlp", "naivebayes", "perceptron", "randomforest", "svm"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("registry has %d classifiers: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry mismatch: %v", got)
		}
	}
}

func TestLinearFamilySplit(t *testing.T) {
	linear, nonLinear := LinearFamily()
	wantLinear := map[string]bool{"logreg": true, "naivebayes": true, "svm": true, "lda": true, "perceptron": true, "bpm": true}
	for _, name := range linear {
		if !wantLinear[name] {
			t.Errorf("%s classified linear, want non-linear (Table 5)", name)
		}
	}
	for _, name := range nonLinear {
		if wantLinear[name] {
			t.Errorf("%s classified non-linear, want linear (Table 5)", name)
		}
	}
	if len(linear)+len(nonLinear) != len(Names()) {
		t.Fatal("family split loses classifiers")
	}
}

func TestAllClassifiersLearnLinearConcept(t *testing.T) {
	xTr, yTr := makeLinear(200, 1)
	xTe, yTe := makeLinear(100, 2)
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			acc := trainEval(t, name, nil, xTr, yTr, xTe, yTe)
			if acc < 0.85 {
				t.Fatalf("%s: accuracy %.3f on separable linear data", name, acc)
			}
		})
	}
}

func TestNonLinearClassifiersLearnCircles(t *testing.T) {
	xTr, yTr := makeCircles(300, 3)
	xTe, yTe := makeCircles(150, 4)
	for _, name := range []string{"dtree", "randomforest", "bagging", "boosted", "knn", "jungle", "mlp"} {
		name := name
		t.Run(name, func(t *testing.T) {
			acc := trainEval(t, name, nil, xTr, yTr, xTe, yTe)
			if acc < 0.85 {
				t.Fatalf("%s: accuracy %.3f on circles", name, acc)
			}
		})
	}
}

func TestLinearClassifiersFailCircles(t *testing.T) {
	// The §6 inference methodology depends on this gap existing.
	xTr, yTr := makeCircles(300, 5)
	xTe, yTe := makeCircles(150, 6)
	for _, name := range []string{"logreg", "svm", "lda", "perceptron", "bpm"} {
		name := name
		t.Run(name, func(t *testing.T) {
			acc := trainEval(t, name, nil, xTr, yTr, xTe, yTe)
			if acc > 0.70 {
				t.Fatalf("%s: accuracy %.3f on circles — should be near chance for a linear model", name, acc)
			}
		})
	}
}

func TestNonLinearLearnXOR(t *testing.T) {
	xTr, yTr := makeXOR(400, 7)
	xTe, yTe := makeXOR(200, 8)
	for _, name := range []string{"dtree", "randomforest", "boosted", "knn"} {
		if acc := trainEval(t, name, nil, xTr, yTr, xTe, yTe); acc < 0.85 {
			t.Fatalf("%s: accuracy %.3f on XOR", name, acc)
		}
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	for _, name := range Names() {
		clf, _ := New(name, nil)
		if err := clf.Fit(nil, nil, rng.New(1)); err == nil {
			t.Errorf("%s: no error on empty training set", name)
		}
		clf2, _ := New(name, nil)
		if err := clf2.Fit([][]float64{{1}, {2}}, []int{0}, rng.New(1)); err == nil {
			t.Errorf("%s: no error on length mismatch", name)
		}
		clf3, _ := New(name, nil)
		if err := clf3.Fit([][]float64{{1}, {2}}, []int{0, 5}, rng.New(1)); err == nil {
			t.Errorf("%s: no error on non-binary label", name)
		}
		clf4, _ := New(name, nil)
		if err := clf4.Fit([][]float64{{1, 2}, {3}}, []int{0, 1}, rng.New(1)); err == nil {
			t.Errorf("%s: no error on ragged rows", name)
		}
	}
}

func TestFitDeterministic(t *testing.T) {
	xTr, yTr := makeCircles(150, 9)
	xTe, _ := makeCircles(60, 10)
	for _, name := range Names() {
		a, _ := New(name, nil)
		b, _ := New(name, nil)
		if err := a.Fit(xTr, yTr, rng.New(42)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.Fit(xTr, yTr, rng.New(42)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pa, pb := a.Predict(xTe), b.Predict(xTe)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: same seed, different predictions at %d", name, i)
			}
		}
	}
}

func TestSingleClassTraining(t *testing.T) {
	// All-negative training data must not panic and should predict negative.
	x := [][]float64{{1, 2}, {2, 3}, {3, 4}, {4, 5}}
	y := []int{0, 0, 0, 0}
	for _, name := range Names() {
		clf, _ := New(name, nil)
		if err := clf.Fit(x, y, rng.New(1)); err != nil {
			t.Fatalf("%s: single-class fit: %v", name, err)
		}
		pred := clf.Predict(x)
		for _, p := range pred {
			if p != 0 {
				t.Errorf("%s: predicted positive from all-negative training", name)
			}
		}
	}
}

func TestUnknownClassifier(t *testing.T) {
	if _, err := New("xgboost", nil); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Lookup("xgboost"); err == nil {
		t.Fatal("expected error")
	}
}

func TestDefaultParams(t *testing.T) {
	p, err := DefaultParams("logreg")
	if err != nil {
		t.Fatal(err)
	}
	if p["penalty"] != "l2" {
		t.Fatalf("default penalty %v", p["penalty"])
	}
	if p["C"] != 1.0 {
		t.Fatalf("default C %v", p["C"])
	}
	if _, err := DefaultParams("nope"); err == nil {
		t.Fatal("expected error")
	}
}

// bound binds p to the registered specs of a classifier, as New does.
func bound(name string, p Params) params {
	return params{vals: p, specs: registry[name].info.Params}
}

func TestParamsAccessors(t *testing.T) {
	p := params{
		vals: Params{"a": 2.5, "b": 3, "c": "x", "d": 7},
		specs: []ParamSpec{
			{Name: "a", Kind: Numeric, Default: 1},
			{Name: "b", Kind: Numeric, Default: 1, IsInt: true},
			{Name: "c", Kind: Categorical, Options: []any{"y", "x"}},
			{Name: "d", Kind: Categorical, Options: []any{"z"}},
			{Name: "missing", Kind: Numeric, Default: 7.4, IsInt: true},
			{Name: "absent", Kind: Categorical, Options: []any{"w", "v"}},
		},
	}
	if p.float("a") != 2.5 || p.float("b") != 3 || p.float("missing") != 7.4 {
		t.Fatal("float")
	}
	if p.integer("a") != 3 || p.integer("b") != 3 || p.integer("missing") != 7 {
		t.Fatal("integer")
	}
	if p.option("c") != "x" || p.option("absent") != "w" {
		t.Fatal("option")
	}
	if p.option("d") != "z" {
		t.Fatal("type-mismatch fallback")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reading an unregistered name did not panic")
			}
		}()
		p.float("gamma")
	}()
	c := p.Params().Clone()
	c["a"] = 0.0
	if p.float("a") != 2.5 {
		t.Fatal("Clone aliases")
	}
}

func TestParamSpecCheck(t *testing.T) {
	cat := ParamSpec{Name: "act", Kind: Categorical, Options: []any{"relu", "tanh"}}
	num := ParamSpec{Name: "alpha", Kind: Numeric, Default: 1e-4, Min: 1e-8, Max: 10}
	iter := ParamSpec{Name: "iter", Kind: Numeric, Default: 1, Min: 2, Max: 200, IsInt: true}
	for _, tc := range []struct {
		spec ParamSpec
		in   any
		want any
	}{
		{cat, "tanh", "tanh"},
		{num, 10.0, 10.0},
		{num, 2, 2.0},
		{iter, 200.0, 200},
		{iter, 7, 7},
		{iter, 1.0, 1}, // the spec's own default, below Min
	} {
		got, err := tc.spec.Check(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("%s.Check(%#v) = %#v, %v; want %#v", tc.spec.Name, tc.in, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		spec ParamSpec
		in   any
	}{
		{cat, "foo"}, {cat, 3.0}, {cat, nil},
		{num, -1.0}, {num, 10.5}, {num, "1"}, {num, math.NaN()}, {num, []any{1.0}},
		{iter, 0.0}, {iter, 201.0}, {iter, 7.5}, {iter, true},
	} {
		if got, err := tc.spec.Check(tc.in); err == nil {
			t.Errorf("%s.Check(%#v) = %#v, want an error", tc.spec.Name, tc.in, got)
		}
	}
}

func TestGridValuesNumericRule(t *testing.T) {
	// §3.2: numeric grid is D/100, D, 100·D.
	ps := ParamSpec{Name: "C", Kind: Numeric, Default: 1, Min: 1e-6, Max: 1e6}
	vals := ps.GridValues()
	if len(vals) != 3 {
		t.Fatalf("grid %v", vals)
	}
	if vals[0].(float64) != 0.01 || vals[1].(float64) != 1.0 || vals[2].(float64) != 100.0 {
		t.Fatalf("grid %v, want [0.01 1 100]", vals)
	}
}

func TestGridValuesClampAndDedup(t *testing.T) {
	ps := ParamSpec{Name: "k", Kind: Numeric, Default: 5, Min: 1, Max: 50, IsInt: true}
	vals := ps.GridValues()
	// 0.05→1, 5, 500→50: three distinct ints.
	if len(vals) != 3 || vals[0].(int) != 1 || vals[1].(int) != 5 || vals[2].(int) != 50 {
		t.Fatalf("grid %v", vals)
	}
	// Clamping can collapse grid points: 0.01→1 and 1 dedup to one value.
	ps2 := ParamSpec{Name: "x", Kind: Numeric, Default: 1, Min: 1, Max: 2}
	if got := ps2.GridValues(); len(got) != 2 || got[0].(float64) != 1 || got[1].(float64) != 2 {
		t.Fatalf("collapsed grid %v, want [1 2]", got)
	}
}

func TestGridValuesCategorical(t *testing.T) {
	ps := ParamSpec{Name: "penalty", Kind: Categorical, Options: []any{"l1", "l2"}}
	vals := ps.GridValues()
	if len(vals) != 2 || vals[0] != "l1" {
		t.Fatalf("grid %v", vals)
	}
}

func TestDefaultValue(t *testing.T) {
	ps := ParamSpec{Kind: Categorical, Options: []any{"a", "b"}}
	if ps.DefaultValue() != "a" {
		t.Fatal("categorical default")
	}
	pn := ParamSpec{Kind: Numeric, Default: 5.5}
	if pn.DefaultValue() != 5.5 {
		t.Fatal("numeric default")
	}
	pi := ParamSpec{Kind: Numeric, Default: 5.4, IsInt: true}
	if pi.DefaultValue() != 5 {
		t.Fatal("int default")
	}
}

func TestEveryParamGridTrains(t *testing.T) {
	// Sweep each classifier's full one-dimensional grids: every value must
	// produce a trainable model. This is the §3.2 validity check
	// ("manually examine the parameter type and its acceptable range").
	xTr, yTr := makeLinear(60, 11)
	xTe, _ := makeLinear(20, 12)
	for _, name := range Names() {
		info, _ := Lookup(name)
		for _, spec := range info.Params {
			for _, val := range spec.GridValues() {
				params, _ := DefaultParams(name)
				params[spec.Name] = val
				clf, err := New(name, params)
				if err != nil {
					t.Fatalf("%s %s=%v: %v", name, spec.Name, val, err)
				}
				if err := clf.Fit(xTr, yTr, rng.New(5)); err != nil {
					t.Fatalf("%s %s=%v: fit: %v", name, spec.Name, val, err)
				}
				pred := clf.Predict(xTe)
				for _, p := range pred {
					if p != 0 && p != 1 {
						t.Fatalf("%s %s=%v: non-binary prediction %d", name, spec.Name, val, p)
					}
				}
			}
		}
	}
}
