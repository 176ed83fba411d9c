package classifiers

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"mlaasbench/internal/rng"
)

// Per-classifier behavioral tests: each classifier's defining property,
// beyond the shared learn-the-concept checks in classifiers_test.go.

func TestLogRegRecoversDirection(t *testing.T) {
	// Concept: y = 1 iff 3·x0 - 2·x1 > 0. Learned weights must align.
	r := rng.New(1)
	var x [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		a, b := r.NormFloat64(), r.NormFloat64()
		x = append(x, []float64{a, b})
		if 3*a-2*b > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	for _, solver := range []string{"sgd", "newton"} {
		clf := &LogisticRegression{params: bound("logreg", Params{"solver": solver, "max_iter": 200})}
		if err := clf.Fit(x, y, rng.New(2)); err != nil {
			t.Fatal(err)
		}
		w, _ := clf.Weights()
		// Normalize and compare to (3,-2)/√13.
		norm := math.Hypot(w[0], w[1])
		if norm == 0 {
			t.Fatalf("%s: zero weights", solver)
		}
		cos := (w[0]*3 + w[1]*-2) / (norm * math.Sqrt(13))
		if cos < 0.97 {
			t.Errorf("%s: weight direction cosine %.3f", solver, cos)
		}
	}
}

func TestLogRegL1SparserThanL2(t *testing.T) {
	// With many noise features and strong regularization, L1 should zero
	// out (or shrink) more mass than L2.
	r := rng.New(3)
	var x [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		row := make([]float64, 10)
		for j := range row {
			row[j] = r.NormFloat64()
		}
		x = append(x, row)
		if row[0] > 0 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	mass := func(penalty string) float64 {
		clf := &LogisticRegression{params: bound("logreg", Params{"penalty": penalty, "C": 0.05, "max_iter": 100})}
		if err := clf.Fit(x, y, rng.New(4)); err != nil {
			t.Fatal(err)
		}
		w, _ := clf.Weights()
		noise := 0.0
		for _, v := range w[1:] {
			noise += math.Abs(v)
		}
		return noise
	}
	if l1, l2 := mass("l1"), mass("l2"); l1 > l2 {
		t.Errorf("L1 noise-weight mass %.4f should be ≤ L2 %.4f", l1, l2)
	}
}

func TestLogRegFitInterceptFalse(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []int{0, 0, 1, 1}
	for _, solver := range []string{"sgd", "newton"} {
		clf := &LogisticRegression{params: bound("logreg", Params{"fit_intercept": "false", "solver": solver})}
		if err := clf.Fit(x, y, rng.New(5)); err != nil {
			t.Fatal(err)
		}
		if _, b := clf.Weights(); b != 0 {
			t.Errorf("%s: intercept %v with fit_intercept=false", solver, b)
		}
	}
}

func TestNaiveBayesLearnsClassStatistics(t *testing.T) {
	// Class 0 ~ N(0,1), class 1 ~ N(5,1): a point at 4.9 must be class 1,
	// at 0.1 class 0.
	r := rng.New(6)
	var x [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		cls := i % 2
		x = append(x, []float64{r.Normal(float64(cls)*5, 1)})
		y = append(y, cls)
	}
	nb := &NaiveBayes{params: bound("naivebayes", Params{})}
	if err := nb.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	pred := nb.Predict([][]float64{{0.1}, {4.9}})
	if pred[0] != 0 || pred[1] != 1 {
		t.Fatalf("NB predictions %v", pred)
	}
}

func TestNaiveBayesUniformPriorShiftsImbalanced(t *testing.T) {
	// 90/10 imbalance: at the midpoint, empirical prior votes majority,
	// uniform prior is indifferent to class frequencies.
	r := rng.New(7)
	var x [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		cls := 0
		if i%10 == 0 {
			cls = 1
		}
		x = append(x, []float64{r.Normal(float64(cls)*2, 1)})
		y = append(y, cls)
	}
	predAt := func(prior string, v float64) int {
		nb := &NaiveBayes{params: bound("naivebayes", Params{"prior": prior})}
		if err := nb.Fit(x, y, nil); err != nil {
			t.Fatal(err)
		}
		return nb.Predict([][]float64{{v}})[0]
	}
	// Exactly at the midpoint the empirical prior must pull toward the
	// majority class relative to the uniform prior.
	if predAt("empirical", 1.0) == 1 && predAt("uniform", 1.0) == 0 {
		t.Fatal("empirical prior favored minority class more than uniform")
	}
}

func TestKNNOneNeighborMemorizes(t *testing.T) {
	x := [][]float64{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	y := []int{0, 1, 0, 1}
	knn := &KNN{params: bound("knn", Params{"n_neighbors": 1})}
	if err := knn.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	pred := knn.Predict(x)
	for i := range y {
		if pred[i] != y[i] {
			t.Fatalf("1-NN must memorize training data: %v vs %v", pred, y)
		}
	}
}

func TestKNNDistanceWeighting(t *testing.T) {
	// Query at 0.1: neighbors are 0 (class 1) and 1,2 (class 0). With k=3
	// uniform, class 0 wins 2:1; distance weighting makes the adjacent
	// class-1 point dominate.
	x := [][]float64{{0}, {1}, {2}}
	y := []int{1, 0, 0}
	uniform := &KNN{params: bound("knn", Params{"n_neighbors": 3, "weights": "uniform"})}
	_ = uniform.Fit(x, y, nil)
	weighted := &KNN{params: bound("knn", Params{"n_neighbors": 3, "weights": "distance"})}
	_ = weighted.Fit(x, y, nil)
	q := [][]float64{{0.1}}
	if uniform.Predict(q)[0] != 0 {
		t.Fatal("uniform 3-NN should vote class 0")
	}
	if weighted.Predict(q)[0] != 1 {
		t.Fatal("distance-weighted 3-NN should vote class 1")
	}
}

func TestDecisionTreeDepthLimit(t *testing.T) {
	r := rng.New(8)
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		x = append(x, []float64{r.NormFloat64(), r.NormFloat64()})
		y = append(y, r.Intn(2))
	}
	for _, depth := range []int{1, 2, 4} {
		dt := &DecisionTree{params: bound("dtree", Params{"max_depth": depth})}
		if err := dt.Fit(x, y, rng.New(9)); err != nil {
			t.Fatal(err)
		}
		if got := dt.Depth(); got > depth {
			t.Fatalf("max_depth=%d produced depth %d", depth, got)
		}
	}
}

func TestDecisionTreeNodeThresholdStopsEarly(t *testing.T) {
	r := rng.New(10)
	var x [][]float64
	var y []int
	for i := 0; i < 100; i++ {
		x = append(x, []float64{r.NormFloat64()})
		y = append(y, r.Intn(2))
	}
	big := &DecisionTree{params: bound("dtree", Params{"node_threshold": 90, "max_depth": 30})}
	_ = big.Fit(x, y, rng.New(11))
	small := &DecisionTree{params: bound("dtree", Params{"node_threshold": 2, "max_depth": 30})}
	_ = small.Fit(x, y, rng.New(11))
	if big.Depth() >= small.Depth() {
		t.Fatalf("node_threshold=90 depth %d should be shallower than threshold=2 depth %d", big.Depth(), small.Depth())
	}
}

func TestBoostingImprovesWithRounds(t *testing.T) {
	xTr, yTr := makeCircles(300, 12)
	xTe, yTe := makeCircles(150, 13)
	accAt := func(rounds int) float64 {
		bst := &BoostedTrees{params: bound("boosted", Params{"n_estimators": rounds, "max_leaves": 4})}
		if err := bst.Fit(xTr, yTr, rng.New(14)); err != nil {
			t.Fatal(err)
		}
		return accuracy(yTe, bst.Predict(xTe))
	}
	if a1, a50 := accAt(1), accAt(50); a50 <= a1 {
		t.Fatalf("boosting with 50 rounds (%.3f) should beat 1 round (%.3f)", a50, a1)
	}
}

func TestRandomForestBeatsSingleTreeOnNoise(t *testing.T) {
	// With label noise, the ensemble should generalize at least as well as
	// a single full tree.
	r := rng.New(15)
	makeNoisy := func(n int, seed uint64) ([][]float64, []int) {
		rr := rng.New(seed)
		var x [][]float64
		var y []int
		for i := 0; i < n; i++ {
			a, b := rr.NormFloat64(), rr.NormFloat64()
			cls := 0
			if a+b > 0 {
				cls = 1
			}
			if rr.Bernoulli(0.15) {
				cls = 1 - cls
			}
			x = append(x, []float64{a, b})
			y = append(y, cls)
		}
		return x, y
	}
	xTr, yTr := makeNoisy(300, 16)
	xTe, yTe := makeNoisy(200, 17)
	_ = r
	tree := &DecisionTree{params: bound("dtree", Params{"max_depth": 30})}
	_ = tree.Fit(xTr, yTr, rng.New(18))
	forest := &RandomForest{params: bound("randomforest", Params{"n_estimators": 30})}
	_ = forest.Fit(xTr, yTr, rng.New(18))
	accTree := accuracy(yTe, tree.Predict(xTe))
	accForest := accuracy(yTe, forest.Predict(xTe))
	if accForest < accTree-0.02 {
		t.Fatalf("forest %.3f should not trail single tree %.3f", accForest, accTree)
	}
}

func TestBaggingUsesBootstrapDiversity(t *testing.T) {
	xTr, yTr := makeCircles(200, 19)
	bag := &Bagging{params: bound("bagging", Params{"n_estimators": 10})}
	if err := bag.Fit(xTr, yTr, rng.New(20)); err != nil {
		t.Fatal(err)
	}
	if len(bag.trees) != 10 {
		t.Fatalf("%d trees", len(bag.trees))
	}
	// Bootstrap trees must not all be identical: compare predictions of
	// the first two trees across training points.
	diff := 0
	for _, row := range xTr {
		a := bag.trees[0].predict(row)
		b := bag.trees[1].predict(row)
		if (a > 0.5) != (b > 0.5) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("bootstrap trees are identical — no resampling diversity")
	}
}

func TestMLPSolversAndActivationsLearn(t *testing.T) {
	xTr, yTr := makeXOR(300, 21)
	xTe, yTe := makeXOR(150, 22)
	for _, solver := range []string{"adam", "sgd"} {
		for _, act := range []string{"relu", "tanh", "logistic"} {
			mlp := &MLP{params: bound("mlp", Params{"solver": solver, "activation": act, "max_iter": 80, "hidden": 16})}
			if err := mlp.Fit(xTr, yTr, rng.New(23)); err != nil {
				t.Fatal(err)
			}
			if acc := accuracy(yTe, mlp.Predict(xTe)); acc < 0.8 {
				t.Errorf("mlp %s/%s: accuracy %.3f on XOR", solver, act, acc)
			}
		}
	}
}

func TestAveragedPerceptronMoreStableThanFinal(t *testing.T) {
	// On noisy data the averaged weights should fluctuate less across
	// reruns than a vanilla perceptron's final weights would; we check the
	// cheap proxy that two different shuffles give similar predictions.
	r := rng.New(24)
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		a, b := r.NormFloat64(), r.NormFloat64()
		cls := 0
		if a > 0 {
			cls = 1
		}
		if r.Bernoulli(0.1) {
			cls = 1 - cls
		}
		x = append(x, []float64{a, b})
		y = append(y, cls)
	}
	p1 := &AveragedPerceptron{params: bound("perceptron", Params{})}
	_ = p1.Fit(x, y, rng.New(25))
	p2 := &AveragedPerceptron{params: bound("perceptron", Params{})}
	_ = p2.Fit(x, y, rng.New(26))
	agree := 0
	probe := [][]float64{}
	for i := 0; i < 100; i++ {
		probe = append(probe, []float64{r.NormFloat64(), r.NormFloat64()})
	}
	q1, q2 := p1.Predict(probe), p2.Predict(probe)
	for i := range q1 {
		if q1[i] == q2[i] {
			agree++
		}
	}
	if agree < 90 {
		t.Fatalf("averaged perceptrons from different shuffles agree on only %d/100 points", agree)
	}
}

func TestBPMCommitteeAverages(t *testing.T) {
	xTr, yTr := makeLinear(200, 27)
	xTe, yTe := makeLinear(100, 28)
	bpm := &BayesPointMachine{params: bound("bpm", Params{"n_iter": 20})}
	if err := bpm.Fit(xTr, yTr, rng.New(29)); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(yTe, bpm.Predict(xTe)); acc < 0.9 {
		t.Fatalf("BPM accuracy %.3f on separable data", acc)
	}
}

func TestJungleWidthBoundRespected(t *testing.T) {
	xTr, yTr := makeCircles(300, 30)
	dj := &DecisionJungle{params: bound("jungle", Params{"n_dags": 4, "max_depth": 10, "max_width": 4})}
	if err := dj.Fit(xTr, yTr, rng.New(31)); err != nil {
		t.Fatal(err)
	}
	for _, dag := range dj.dags {
		for li, level := range dag.levels {
			if li == 0 {
				continue
			}
			if len(level) > 4 {
				t.Fatalf("level %d has %d nodes, width cap 4", li, len(level))
			}
		}
	}
}

func TestJungleChildPointersValid(t *testing.T) {
	xTr, yTr := makeXOR(250, 32)
	dj := &DecisionJungle{params: bound("jungle", Params{"n_dags": 6, "max_depth": 8, "max_width": 6})}
	if err := dj.Fit(xTr, yTr, rng.New(33)); err != nil {
		t.Fatal(err)
	}
	for _, dag := range dj.dags {
		for li, level := range dag.levels {
			for _, node := range level {
				if node.feature < 0 {
					continue
				}
				if li+1 >= len(dag.levels) {
					t.Fatal("split node on the terminal level")
				}
				next := len(dag.levels[li+1])
				if node.left < 0 || node.left >= next || node.right < 0 || node.right >= next {
					t.Fatalf("level %d: child pointers %d/%d outside next level of %d", li, node.left, node.right, next)
				}
			}
		}
	}
}

// Split parameters below their declared minimum still fit: random_splits
// below 0 scans every midpoint as 0 does, and opt_steps below 1 draws the
// thresholds of opt_steps 1, as max_width below 2 grows width-2 DAGs.
func TestTreeLearnersFitBelowParamMinimum(t *testing.T) {
	x, y := makeXOR(120, 35)
	fit := func(c Classifier) {
		t.Helper()
		if err := c.Fit(x, y, rng.New(36)); err != nil {
			t.Fatal(err)
		}
	}
	want := &RandomForest{params: bound("randomforest", Params{"n_estimators": 4, "random_splits": 0})}
	fit(want)
	for _, splits := range []int{-1, -40} {
		got := &RandomForest{params: bound("randomforest", Params{"n_estimators": 4, "random_splits": splits})}
		fit(got)
		if !reflect.DeepEqual(got.trees, want.trees) {
			t.Fatalf("random_splits %d: forest differs from random_splits 0", splits)
		}
	}
	wantDJ := &DecisionJungle{params: bound("jungle", Params{"n_dags": 3, "opt_steps": 1})}
	fit(wantDJ)
	for _, steps := range []int{0, -1} {
		got := &DecisionJungle{params: bound("jungle", Params{"n_dags": 3, "opt_steps": steps})}
		fit(got)
		if !reflect.DeepEqual(got.dags, wantDJ.dags) {
			t.Fatalf("opt_steps %d: jungle differs from opt_steps 1", steps)
		}
	}
}

func TestSVMLossVariantsBothLearn(t *testing.T) {
	xTr, yTr := makeLinear(200, 34)
	xTe, yTe := makeLinear(100, 35)
	for _, loss := range []string{"hinge", "squared_hinge"} {
		svm := &LinearSVM{params: bound("svm", Params{"loss": loss})}
		if err := svm.Fit(xTr, yTr, rng.New(36)); err != nil {
			t.Fatal(err)
		}
		if acc := accuracy(yTe, svm.Predict(xTe)); acc < 0.9 {
			t.Errorf("svm %s: accuracy %.3f", loss, acc)
		}
	}
}

func TestLDASolversAgree(t *testing.T) {
	xTr, yTr := makeLinear(300, 37)
	xTe, _ := makeLinear(100, 38)
	lsqr := &LDA{params: bound("lda", Params{"solver": "lsqr"})}
	_ = lsqr.Fit(xTr, yTr, nil)
	eigen := &LDA{params: bound("lda", Params{"solver": "eigen"})}
	_ = eigen.Fit(xTr, yTr, nil)
	p1, p2 := lsqr.Predict(xTe), eigen.Predict(xTe)
	agree := 0
	for i := range p1 {
		if p1[i] == p2[i] {
			agree++
		}
	}
	if agree < 95 {
		t.Fatalf("LDA solvers agree on only %d/100 points", agree)
	}
}

func TestLDAShrinkageHandlesSingularCovariance(t *testing.T) {
	// Duplicate feature → singular pooled covariance; shrinkage must cope.
	r := rng.New(39)
	var x [][]float64
	var y []int
	for i := 0; i < 100; i++ {
		v := r.NormFloat64()
		cls := 0
		if v > 0 {
			cls = 1
		}
		x = append(x, []float64{v, v, r.NormFloat64()})
		y = append(y, cls)
	}
	lda := &LDA{params: bound("lda", Params{"shrinkage": "auto"})}
	if err := lda.Fit(x, y, nil); err != nil {
		t.Fatal(err)
	}
	acc := accuracy(y, lda.Predict(x))
	if acc < 0.9 {
		t.Fatalf("shrinkage LDA accuracy %.3f on separable data with duplicate feature", acc)
	}
}

func TestDecisionTreeScaleInvariant(t *testing.T) {
	// CART splits depend only on feature order, so predictions must be
	// invariant under positive rescaling of a feature (applied to both
	// train and test).
	xTr, yTr := makeCircles(200, 50)
	xTe, _ := makeCircles(80, 51)
	scale := func(rows [][]float64, f float64) [][]float64 {
		out := make([][]float64, len(rows))
		for i, r := range rows {
			out[i] = []float64{r[0] * f, r[1]}
		}
		return out
	}
	a := &DecisionTree{params: bound("dtree", Params{})}
	if err := a.Fit(xTr, yTr, rng.New(52)); err != nil {
		t.Fatal(err)
	}
	b := &DecisionTree{params: bound("dtree", Params{})}
	if err := b.Fit(scale(xTr, 1000), yTr, rng.New(52)); err != nil {
		t.Fatal(err)
	}
	pa := a.Predict(xTe)
	pb := b.Predict(scale(xTe, 1000))
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("tree predictions changed under feature rescaling at %d", i)
		}
	}
}

func TestKNNPermutationInvariant(t *testing.T) {
	xTr, yTr := makeCircles(150, 53)
	xTe, _ := makeCircles(60, 54)
	a := &KNN{params: bound("knn", Params{"n_neighbors": 5})}
	_ = a.Fit(xTr, yTr, nil)
	// Permute the training order.
	perm := rng.New(55).Perm(len(xTr))
	px := make([][]float64, len(xTr))
	py := make([]int, len(yTr))
	for i, j := range perm {
		px[i] = xTr[j]
		py[i] = yTr[j]
	}
	b := &KNN{params: bound("knn", Params{"n_neighbors": 5})}
	_ = b.Fit(px, py, nil)
	pa, pb := a.Predict(xTe), b.Predict(xTe)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("kNN predictions depend on training order at %d", i)
		}
	}
}

// splitAll is bestSplitSorted for feature j over every row of x, in the
// order presortFeatures gives.
func splitAll(x [][]float64, target []float64, j int, cfg treeConfig, r *rng.RNG) (threshold, score float64, ok bool) {
	var sumAll, sqAll float64
	for _, t := range target {
		sumAll += t
		sqAll += t * t
	}
	return bestSplitSorted(x, target, presortFeatures(x).orders[j], j, sumAll, sqAll, cfg, r, make([]float64, cfg.randomSplits))
}

func TestTreeEngineBestSplitExact(t *testing.T) {
	// One feature with a perfect split at 2.5.
	x := [][]float64{{1}, {2}, {3}, {4}}
	target := []float64{0, 0, 1, 1}
	thr, _, ok := splitAll(x, target, 0, treeConfig{criterion: "gini"}, rng.New(1))
	if !ok {
		t.Fatal("no split found")
	}
	if thr != 2.5 {
		t.Fatalf("threshold %v, want 2.5", thr)
	}
}

func TestTreeEngineConstantFeature(t *testing.T) {
	x := [][]float64{{5}, {5}, {5}}
	target := []float64{0, 1, 0}
	if _, _, ok := splitAll(x, target, 0, treeConfig{criterion: "gini"}, rng.New(1)); ok {
		t.Fatal("constant feature must not split")
	}
}

func TestTreeEngineMSECriterion(t *testing.T) {
	// Regression split: targets 0,0 vs 10,10 at threshold 2.5.
	x := [][]float64{{1}, {2}, {3}, {4}}
	target := []float64{0, 0, 10, 10}
	thr, score, ok := splitAll(x, target, 0, treeConfig{criterion: "mse"}, rng.New(1))
	if !ok || thr != 2.5 {
		t.Fatalf("mse split thr=%v ok=%v", thr, ok)
	}
	if score != 0 {
		t.Fatalf("perfect split should have zero weighted variance, got %v", score)
	}
}

func TestTreeEngineRandomSplitsFindSignal(t *testing.T) {
	r := rng.New(40)
	var x [][]float64
	target := make([]float64, 200)
	for i := 0; i < 200; i++ {
		v := r.Uniform(0, 10)
		x = append(x, []float64{v})
		if v > 5 {
			target[i] = 1
		}
	}
	thr, _, ok := splitAll(x, target, 0, treeConfig{criterion: "gini", randomSplits: 32}, rng.New(41))
	if !ok {
		t.Fatal("no random split found")
	}
	if thr < 4 || thr > 6 {
		t.Fatalf("random-split threshold %v too far from 5", thr)
	}
}

func TestGrowTreePureLeaf(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	target := []float64{1, 1, 1}
	node := growTreePresorted(presortFeatures(x), &treeMem{}, x, target, []int{0, 1, 2}, treeConfig{criterion: "gini", minLeaf: 1}, rng.New(1), 0)
	if node.feature != -1 {
		t.Fatal("pure node must be a leaf")
	}
	if node.value != 1 {
		t.Fatalf("leaf value %v", node.value)
	}
}

// expandRows materialises the multiset idx as a matrix with one physical row
// per copy, so a tree grown over all of its rows sees every sample once.
func expandRows(x [][]float64, target []float64, idx []int) ([][]float64, []float64) {
	xe := make([][]float64, len(idx))
	te := make([]float64, len(idx))
	for k, i := range idx {
		xe[k], te[k] = x[i], target[i]
	}
	return xe, te
}

// repeatedSample is a small matrix on a coarse grid (ties on every feature)
// with noisy 0/1 labels, and a draw of 2.5n rows from it with replacement:
// most rows repeat, several times.
func repeatedSample(seed uint64) (x [][]float64, target []float64, idx []int) {
	r := rng.New(seed)
	const n = 16
	x = make([][]float64, n)
	target = make([]float64, n)
	for i := range x {
		x[i] = []float64{float64(r.Intn(7)) / 2, float64(r.Intn(7)) / 2, float64(r.Intn(4))}
		if x[i][0] > x[i][1] != r.Bernoulli(0.2) {
			target[i] = 1
		}
	}
	idx = make([]int, 5*n/2)
	for k := range idx {
		idx[k] = r.Intn(n)
	}
	return x, target, idx
}

// A tree over a sample that repeats rows must be the tree over the same
// samples laid out as distinct physical rows: node sizes, leaf values,
// thresholds and random draws all count every copy. The configurations
// stop growth on the node size (min leaf, node threshold) where the distinct
// rows alone would fall on the other side of the limit.
func TestGrowTreeRepeatedRowsMatchExpandedRows(t *testing.T) {
	cfgs := []treeConfig{
		{criterion: "gini", minLeaf: 3, nodeThreshold: 9, maxDepth: 2, randomSplits: 4},
		{criterion: "gini", minLeaf: 3, nodeThreshold: 9, maxDepth: 2},
		{criterion: "gini", minLeaf: 4},
		{criterion: "gini", minLeaf: 1, maxFeatures: "sqrt", randomSplits: 2},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		x, target, idx := repeatedSample(seed)
		xe, te := expandRows(x, target, idx)
		for _, cfg := range cfgs {
			got := growTreePresorted(presortFeatures(x), &treeMem{}, x, target, idx, cfg, rng.New(seed), 0)
			want := growTreePresorted(presortFeatures(xe), &treeMem{}, xe, te, allIndices(nil, len(xe)), cfg, rng.New(seed), 0)
			if got.feature < 0 {
				t.Fatalf("seed %d %+v: root did not split", seed, cfg)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %+v: tree over repeated rows differs from the tree over expanded rows", seed, cfg)
			}
		}
	}
}

// Targets that are not 0/1 labels (boosting residuals) make weighted sums
// inexact, so a repeating sample of them grows as if expanded, under mse and
// under gini alike. idx is sorted so that the expanded matrix's ties fall in
// the same order as the repeated rows' and every sum runs in the same order.
func TestGrowTreeRepeatedRowsNonLabelTargets(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		x, _, idx := repeatedSample(seed)
		r := rng.New(100 + seed)
		target := make([]float64, len(x))
		for i := range target {
			target[i] = r.Uniform(-1, 1)
		}
		slices.Sort(idx)
		xe, te := expandRows(x, target, idx)
		for _, cfg := range []treeConfig{
			{criterion: "mse", minLeaf: 2, maxDepth: 3},
			{criterion: "gini", minLeaf: 3, nodeThreshold: 9, maxDepth: 2, randomSplits: 4},
		} {
			got := growTreePresorted(presortFeatures(x), &treeMem{}, x, target, idx, cfg, rng.New(seed), 0)
			want := growTreePresorted(presortFeatures(xe), &treeMem{}, xe, te, allIndices(nil, len(xe)), cfg, rng.New(seed), 0)
			if got.feature < 0 {
				t.Fatalf("seed %d %+v: root did not split", seed, cfg)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %+v: tree over repeated rows differs from the tree over expanded rows", seed, cfg)
			}
		}
	}
}
