package platforms

import (
	"math"
	"testing"

	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

func TestAllPlatformsConstruct(t *testing.T) {
	ps := All()
	if len(ps) != 7 {
		t.Fatalf("%d platforms, want 7", len(ps))
	}
	for i, p := range ps {
		if p.Name() != Names()[i] {
			t.Fatalf("platform %d is %s, want %s", i, p.Name(), Names()[i])
		}
		if p.Complexity() != i {
			t.Fatalf("%s complexity %d, want %d (Figure 2 order)", p.Name(), p.Complexity(), i)
		}
	}
	if _, err := New("watson"); err == nil {
		t.Fatal("expected error for unknown platform")
	}
}

func TestSurfaceSizesMatchTable1(t *testing.T) {
	cases := []struct {
		name        string
		classifiers int
		feats       int
	}{
		{"google", 0, 0},
		{"abm", 0, 0},
		{"amazon", 1, 0},
		{"bigml", 4, 0},
		{"predictionio", 3, 0},
		{"microsoft", 7, 8},
		{"local", 10, 8},
	}
	for _, tc := range cases {
		p, err := New(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		s := p.Surface()
		if len(s.Classifiers) != tc.classifiers {
			t.Errorf("%s: %d classifiers, want %d", tc.name, len(s.Classifiers), tc.classifiers)
		}
		if len(s.Feats) != tc.feats {
			t.Errorf("%s: %d FEAT options, want %d", tc.name, len(s.Feats), tc.feats)
		}
	}
}

func TestBaselineClassifier(t *testing.T) {
	for _, p := range All() {
		switch p.Name() {
		case "google", "abm":
			if p.BaselineClassifier() != "" {
				t.Errorf("%s: black box should have no baseline classifier", p.Name())
			}
		default:
			if p.BaselineClassifier() != "logreg" {
				t.Errorf("%s: baseline %q, want logreg (§3.2)", p.Name(), p.BaselineClassifier())
			}
		}
	}
}

func TestUserPlatformsRunBaseline(t *testing.T) {
	ds := synth.GenerateClean(synth.Spec{Name: "lin", Gen: synth.GenLinear, N: 150, D: 4, Noise: 0.2}, synth.Quick, 1)
	sp := ds.StratifiedSplit(0.7, rng.New(2))
	for _, p := range All() {
		if p.BaselineClassifier() == "" {
			continue
		}
		cfg, err := p.Surface().DefaultConfig(p.BaselineClassifier())
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		res, err := p.Run(cfg, sp.Train, sp.Test, 7)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.Scores.F1 < 0.7 {
			t.Errorf("%s: baseline F1 %.3f on separable data", p.Name(), res.Scores.F1)
		}
	}
}

func TestUserPlatformRejectsForeignClassifier(t *testing.T) {
	ds := synth.GenerateClean(synth.LinearSpec(), synth.Quick, 1)
	sp := ds.StratifiedSplit(0.7, rng.New(1))
	amazon, _ := New("amazon")
	cfg := pipeline.Config{Classifier: "randomforest"}
	if _, err := amazon.Run(cfg, sp.Train, sp.Test, 1); err == nil {
		t.Fatal("amazon must reject classifiers it does not offer")
	}
	if _, err := amazon.Fit(cfg, sp.Train, 1); err == nil {
		t.Fatal("amazon must reject classifiers in Fit too")
	}
}

func TestBlackBoxesRunWithoutConfig(t *testing.T) {
	ds := synth.GenerateClean(synth.LinearSpec(), synth.Quick, 3)
	sp := ds.StratifiedSplit(0.7, rng.New(4))
	for _, name := range []string{"google", "abm"} {
		p, _ := New(name)
		res, err := p.Run(pipeline.Config{}, sp.Train, sp.Test, 5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Scores.F1 < 0.7 {
			t.Errorf("%s: F1 %.3f on LINEAR", name, res.Scores.F1)
		}
		if res.Config.Classifier != "auto" {
			t.Errorf("%s: leaked internal classifier %q", name, res.Config.Classifier)
		}
	}
}

func TestBlackBoxSwitchesFamilies(t *testing.T) {
	// §6.1: on CIRCLE the black boxes must choose non-linear, on LINEAR
	// they must stay linear.
	circle := synth.GenerateClean(synth.CircleSpec(), synth.Quick, synth.CorpusSeed)
	linear := synth.GenerateClean(synth.LinearSpec(), synth.Quick, synth.CorpusSeed)
	google := newGoogle()
	abm := newABM()
	if !google.ChosenFamily(circle, 11) {
		t.Error("google chose linear on CIRCLE")
	}
	if google.ChosenFamily(linear, 11) {
		t.Error("google chose non-linear on LINEAR")
	}
	if !abm.ChosenFamily(circle, 11) {
		t.Error("abm chose linear on CIRCLE")
	}
	if abm.ChosenFamily(linear, 11) {
		t.Error("abm chose non-linear on LINEAR")
	}
}

func TestBlackBoxBoundaryShapes(t *testing.T) {
	// Figure 10: on CIRCLE both black boxes produce a non-linear boundary —
	// the inner region predicted 1, far corners predicted 0.
	circle := synth.GenerateClean(synth.CircleSpec(), synth.Quick, synth.CorpusSeed)
	for _, name := range []string{"google", "abm", "amazon"} {
		p, _ := New(name)
		cfg := pipeline.Config{}
		if name == "amazon" {
			c, err := p.Surface().DefaultConfig("logreg")
			if err != nil {
				t.Fatal(err)
			}
			cfg = c
		}
		center := [][]float64{{0, 0}, {0.05, -0.05}, {-0.05, 0.05}}
		corners := [][]float64{{1.4, 1.4}, {-1.4, 1.4}, {1.4, -1.4}, {-1.4, -1.4}}
		m, err := p.Fit(cfg, circle, 13)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		centerPred, cornerPred := m.Predict(center), m.Predict(corners)
		centerPos, cornerPos := 0, 0
		for _, v := range centerPred {
			centerPos += v
		}
		for _, v := range cornerPred {
			cornerPos += v
		}
		// Fig 10/13: inner class claimed at the center, outer at corners.
		if centerPos < 2 {
			t.Errorf("%s: center not predicted inner class (%d/3)", name, centerPos)
		}
		if cornerPos > 1 {
			t.Errorf("%s: corners predicted inner class (%d/4) — boundary is not closed", name, cornerPos)
		}
	}
}

func TestGoogleLinearBoundaryOnLINEAR(t *testing.T) {
	// Fig 10b: on LINEAR Google's boundary is a straight line; a cheap
	// necessary condition is that prediction is monotone along the
	// discriminant direction. We check predictions flip exactly once along
	// a line crossing the boundary.
	linear := synth.GenerateClean(synth.LinearSpec(), synth.Quick, synth.CorpusSeed)
	google := newGoogle()
	// Build a probe segment between the two class means.
	var m0, m1 [2]float64
	var n0, n1 float64
	for i, row := range linear.X {
		if linear.Y[i] == 0 {
			m0[0] += row[0]
			m0[1] += row[1]
			n0++
		} else {
			m1[0] += row[0]
			m1[1] += row[1]
			n1++
		}
	}
	m0[0] /= n0
	m0[1] /= n0
	m1[0] /= n1
	m1[1] /= n1
	var pts [][]float64
	const steps = 60
	for i := 0; i <= steps; i++ {
		tt := float64(i)/steps*3.0 - 1.0 // extend past both means
		pts = append(pts, []float64{m0[0] + tt*(m1[0]-m0[0]), m0[1] + tt*(m1[1]-m0[1])})
	}
	m, err := google.Fit(pipeline.Config{}, linear, 17)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.Predict(pts)
	flips := 0
	for i := 1; i < len(pred); i++ {
		if pred[i] != pred[i-1] {
			flips++
		}
	}
	if flips != 1 {
		t.Errorf("predictions along the discriminant flip %d times, want 1 (linear boundary)", flips)
	}
}

func TestAmazonBinningIsHidden(t *testing.T) {
	// Amazon's config surface is plain LR; binning must not appear in the
	// reported config, only in the behaviour.
	ds := synth.GenerateClean(synth.CircleSpec(), synth.Quick, 5)
	sp := ds.StratifiedSplit(0.7, rng.New(6))
	amazon, _ := New("amazon")
	cfg, _ := amazon.Surface().DefaultConfig("logreg")
	res, err := amazon.Run(cfg, sp.Train, sp.Test, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.Feat.Kind != "none" {
		t.Fatalf("amazon leaked hidden FEAT: %v", res.Config.Feat)
	}
	// The binned LR should beat a plain local LR on CIRCLE.
	local, _ := New("local")
	lcfg, _ := local.Surface().DefaultConfig("logreg")
	lres, err := local.Run(lcfg, sp.Train, sp.Test, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scores.F1 <= lres.Scores.F1 {
		t.Errorf("binned amazon LR (%.3f) should beat plain LR (%.3f) on CIRCLE", res.Scores.F1, lres.Scores.F1)
	}
}

func TestRunDeterministicAcrossPlatforms(t *testing.T) {
	ds := synth.GenerateClean(synth.Spec{Name: "d", Gen: synth.GenMoons, N: 120, D: 2, Noise: 0.2}, synth.Quick, 8)
	sp := ds.StratifiedSplit(0.7, rng.New(9))
	for _, p := range All() {
		cfg := pipeline.Config{}
		if bc := p.BaselineClassifier(); bc != "" {
			c, err := p.Surface().DefaultConfig(bc)
			if err != nil {
				t.Fatal(err)
			}
			cfg = c
		}
		a, err := p.Run(cfg, sp.Train, sp.Test, 42)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		b, _ := p.Run(cfg, sp.Train, sp.Test, 42)
		if a.Scores != b.Scores {
			t.Errorf("%s: nondeterministic run", p.Name())
		}
	}
}

func TestEnumerationScaleOrdering(t *testing.T) {
	// Table 2: configuration counts grow with platform complexity.
	counts := map[string]int{}
	for _, p := range All() {
		if p.BaselineClassifier() == "" {
			counts[p.Name()] = 1 // one automatic measurement per dataset
			continue
		}
		counts[p.Name()] = len(pipeline.Enumerate(p.Surface()))
	}
	if !(counts["google"] <= counts["amazon"] && counts["amazon"] < counts["bigml"]) {
		t.Errorf("config counts out of order: %v", counts)
	}
	if !(counts["predictionio"] < counts["microsoft"] && counts["microsoft"] < counts["local"]) {
		t.Errorf("config counts out of order at the high end: %v", counts)
	}
	if counts["microsoft"] < 100 {
		t.Errorf("microsoft enumerates only %d configs — surface too small", counts["microsoft"])
	}
}

func TestSurfaceFeatOptionsParse(t *testing.T) {
	// Every FEAT option on every surface must round-trip through ParseFeat
	// (the HTTP layer depends on it).
	for _, p := range All() {
		for _, f := range p.Surface().FeatOptions() {
			got, err := pipeline.ParseFeat(f.String())
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if got.String() != f.String() {
				t.Fatalf("%s: FEAT %v round-trips to %v", p.Name(), f, got)
			}
		}
	}
}

func TestChoiceImperfection(t *testing.T) {
	// §6.3: the black-box choice must NOT be perfect across the corpus —
	// otherwise the naïve-strategy comparison of Table 6 is impossible.
	// Generate a noisy non-linear corpus slice and count family choices.
	google := newGoogle()
	nonLinearChosen := 0
	total := 0
	for i, spec := range synth.Corpus() {
		if i%10 != 0 { // sample for speed
			continue
		}
		ds := synth.GenerateClean(spec, synth.Quick, synth.CorpusSeed)
		if google.ChosenFamily(ds, 3) {
			nonLinearChosen++
		}
		total++
	}
	if nonLinearChosen == 0 || nonLinearChosen == total {
		t.Errorf("google chose the same family on all %d sampled datasets (%d non-linear) — probe degenerate", total, nonLinearChosen)
	}
}

func TestComplexityMonotone(t *testing.T) {
	prev := math.MinInt
	for _, p := range All() {
		if p.Complexity() <= prev {
			t.Fatalf("complexity not strictly increasing at %s", p.Name())
		}
		prev = p.Complexity()
	}
}
