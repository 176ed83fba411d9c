package core

import (
	"bytes"
	"strings"
	"testing"

	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/stats"
	"mlaasbench/internal/synth"
)

func TestFamilyModelOnProbeDataset(t *testing.T) {
	sw := testSweep(t)
	// Find a dataset with a trainable model; prefer non-linear concepts
	// where the family gap is visible.
	var trained *FamilyModel
	for _, ds := range sw.DatasetNames() {
		fm, err := sw.TrainFamilyModel(ds)
		if err == nil {
			trained = fm
			break
		}
	}
	if trained == nil {
		t.Fatal("no dataset produced a trainable family model")
	}
	if trained.ValF1 < 0 || trained.ValF1 > 1 || trained.TestF1 < 0 || trained.TestF1 > 1 {
		t.Fatalf("scores out of range: %+v", trained)
	}
	if trained.Samples < 10 {
		t.Fatalf("model trained on %d samples", trained.Samples)
	}
}

func TestFamilyModelPredictsKnownMeasurements(t *testing.T) {
	sw := probeSweep(t)
	// A qualified model should classify the majority of held-out
	// known-family measurements correctly — that is what TestF1 asserts;
	// here we spot-check the API path.
	fm, err := sw.TrainFamilyModel("CIRCLE")
	if err != nil {
		t.Fatal(err)
	}
	if !fm.Qualified {
		t.Fatalf("CIRCLE family model did not qualify (val F1 %.4f)", fm.ValF1)
	}
	correct, total := 0, 0
	for _, m := range sw.ByPlatform["local"]["CIRCLE"] {
		lbl, err := familyLabel(m.Config.Classifier)
		if err != nil {
			continue
		}
		nonLinear, err := fm.PredictFamily(m)
		if err != nil {
			t.Fatal(err)
		}
		if (nonLinear && lbl == 1) || (!nonLinear && lbl == 0) {
			correct++
		}
		total++
	}
	if total == 0 {
		t.Fatal("no known-family measurements on CIRCLE")
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Fatalf("qualified model only %.2f accurate on local measurements", acc)
	}
}

func TestInferFamiliesReport(t *testing.T) {
	sw := testSweep(t)
	rep, err := sw.InferFamilies(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Models) == 0 {
		t.Fatal("no family models trained")
	}
	cdf := rep.ValidationCDF()
	if len(cdf) == 0 {
		t.Fatal("empty Fig12 CDF")
	}
	// Counts must be consistent with choices.
	for _, p := range []string{"google", "abm", "amazon"} {
		lin, non := 0, 0
		for _, nonLinear := range rep.Choices[p] {
			if nonLinear {
				non++
			} else {
				lin++
			}
		}
		if lin != rep.LinearCount[p] || non != rep.NonLinearCount[p] {
			t.Fatalf("%s: counts inconsistent", p)
		}
	}
	var buf bytes.Buffer
	WriteInference(&buf, rep)
	if !strings.Contains(buf.String(), "Figure 12") {
		t.Fatal("inference report missing Fig12")
	}
}

func TestFamilyCDFsOnCircle(t *testing.T) {
	// Build a dedicated mini-sweep over CIRCLE only: linear classifiers
	// must concentrate at low F1, non-linear at high F1 (Figure 11a).
	sw := probeSweep(t)
	lin, non := sw.FamilyCDFs("CIRCLE")
	if len(lin) == 0 || len(non) == 0 {
		t.Fatal("empty family CDFs")
	}
	// Compare medians.
	medLin := medianOfCDF(lin)
	medNon := medianOfCDF(non)
	if medNon <= medLin {
		t.Fatalf("non-linear median %.3f should exceed linear %.3f on CIRCLE", medNon, medLin)
	}
	var buf bytes.Buffer
	sw.WriteFamilyCDFs(&buf, "CIRCLE")
	if !strings.Contains(buf.String(), "Figure 11") {
		t.Fatal("family CDF output malformed")
	}
}

func medianOfCDF(pts []stats.CDFPoint) float64 {
	for _, p := range pts {
		if p.P >= 0.5 {
			return p.X
		}
	}
	return pts[len(pts)-1].X
}

// probeSweep runs a one-dataset sweep over CIRCLE for the §6 tests, at
// its full 500 rows: the Quick profile caps it at 260, where no family
// model reaches the 0.95 validation F1 that §6.2 qualifies on.
var probeCache *Sweep

func probeSweep(t *testing.T) *Sweep {
	t.Helper()
	if probeCache == nil {
		probeCache = runSingleDatasetSweep(t, synth.CircleSpec(), synth.Full)
	}
	return probeCache
}

func runSingleDatasetSweep(t *testing.T, spec synth.Spec, profile synth.Profile) *Sweep {
	t.Helper()
	// RunSweep truncates the corpus from the front, so a targeted sweep
	// reuses the measurement internals directly.
	opts := DefaultOptions()
	opts.Profile = profile
	sw := &Sweep{Opts: opts, ByPlatform: map[string]map[string][]Measurement{}}
	ds := synth.GenerateClean(spec, opts.Profile, opts.Seed)
	sp := ds.StratifiedSplit(0.7, rng.New(opts.Seed).Split("splits").Split(ds.Name))
	sw.Datasets = append(sw.Datasets, DatasetInfo{
		Name: ds.Name, Domain: ds.Domain, N: ds.N(), D: ds.D(), Linear: ds.Linear, TestY: sp.Test.Y, Split: sp,
	})
	for _, name := range platforms.Names() {
		p, err := platforms.New(name)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := measurePlatform(p, sp, ds.Name, opts)
		if err != nil {
			t.Fatal(err)
		}
		sw.ByPlatform[name] = map[string][]Measurement{ds.Name: ms}
	}
	return sw
}

func TestBlackBoxChoicesOnProbes(t *testing.T) {
	// End-to-end §6.2 on CIRCLE: the family model qualifies, and the
	// inference finds the black boxes non-linear where the probe is.
	sw := probeSweep(t)
	rep, err := sw.InferFamilies(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Qualified) == 0 {
		t.Fatal("CIRCLE family model did not qualify")
	}
	for _, p := range []string{"google", "abm"} {
		nonLinear, ok := rep.Choices[p]["CIRCLE"]
		if !ok {
			t.Fatalf("%s: no choice recorded", p)
		}
		if !nonLinear {
			t.Errorf("%s inferred linear on CIRCLE", p)
		}
	}
}

func TestBoundaryExtraction(t *testing.T) {
	circle, linear := ProbeDatasets(synth.Quick, synth.CorpusSeed)
	google, err := platforms.New("google")
	if err != nil {
		t.Fatal(err)
	}
	bm, err := ExtractBoundary(google, circle, pipeline.Config{}, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.Points) != 400 || len(bm.Labels) != 400 {
		t.Fatalf("mesh size %d/%d", len(bm.Points), len(bm.Labels))
	}
	ascii := bm.ASCII()
	if !strings.Contains(ascii, "#") || !strings.Contains(ascii, "·") {
		t.Fatal("ASCII boundary should show both classes")
	}
	if lines := strings.Count(ascii, "\n"); lines != 20 {
		t.Fatalf("ASCII has %d rows", lines)
	}

	// Fig 10: Google's boundary is non-linear on CIRCLE, linear on LINEAR.
	circleScore := bm.LinearityScore()
	bmLin, err := ExtractBoundary(google, linear, pipeline.Config{}, 20, 7)
	if err != nil {
		t.Fatal(err)
	}
	linearScore := bmLin.LinearityScore()
	if circleScore >= linearScore {
		t.Errorf("linearity on CIRCLE (%.3f) should be below LINEAR (%.3f)", circleScore, linearScore)
	}
	if linearScore < 0.9 {
		t.Errorf("LINEAR boundary linearity %.3f — should be close to a straight line", linearScore)
	}
}

func TestBoundaryRejectsLowDim(t *testing.T) {
	google, _ := platforms.New("google")
	oneD := synth.GenerateClean(synth.Spec{Name: "1d", Gen: synth.GenLinear, N: 40, D: 1}, synth.Quick, 1)
	if _, err := ExtractBoundary(google, oneD, pipeline.Config{}, 10, 1); err == nil {
		t.Fatal("expected error for 1-D dataset")
	}
}
