// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). One measurement sweep is
// shared by all benchmarks; the timed region of each benchmark is the
// analysis that turns raw measurements into the artifact, and each
// benchmark prints its artifact once in the paper's layout.
//
// Environment knobs:
//
//	MLAAS_PROFILE=quick|full   corpus scale (default quick)
//	MLAAS_DATASETS=N           limit the corpus to N datasets (default all 119)
//	MLAAS_SEED=S               measurement seed
//	MLAAS_CACHE=path           sweep cache file (load if present, else save)
//
// Absolute values differ from the paper (its substrate was the 2016/17
// production services); the shapes the paper reports are asserted by the
// test suite and visible in the printed artifacts.
package mlaas

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"mlaasbench/internal/core"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

// rngSplit derives a named deterministic RNG for bench-local experiments.
func rngSplit(seed uint64, name string) *rng.RNG {
	return rng.New(seed).Split(name)
}

var (
	benchOnce  sync.Once
	benchSweep *core.Sweep
	benchErr   error
	printOnce  sync.Map // experiment name → *sync.Once
)

func benchOptions() core.Options {
	opts := core.DefaultOptions()
	if v := os.Getenv("MLAAS_PROFILE"); v != "" {
		p, err := synth.ProfileByName(v)
		if err == nil {
			opts.Profile = p
		}
	}
	if v := os.Getenv("MLAAS_DATASETS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			opts.MaxDatasets = n
		}
	}
	if v := os.Getenv("MLAAS_SEED"); v != "" {
		if s, err := strconv.ParseUint(v, 10, 64); err == nil {
			opts.Seed = s
		}
	}
	return opts
}

// sweep runs (once) the measurement campaign every benchmark analyzes.
func sweep(b *testing.B) *core.Sweep {
	b.Helper()
	benchOnce.Do(func() {
		opts := benchOptions()
		n := opts.MaxDatasets
		if n <= 0 || n > 119 {
			n = 119
		}
		fmt.Fprintf(os.Stderr, "[bench] running measurement sweep: %d datasets, profile %s (one-time cost)\n",
			n, opts.Profile.Name)
		benchSweep, benchErr = core.LoadOrRunSweep(context.Background(), os.Getenv("MLAAS_CACHE"), opts)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSweep
}

// printArtifact emits the rendered artifact once per experiment across all
// b.N iterations.
func printArtifact(name string, render func()) {
	onceAny, _ := printOnce.LoadOrStore(name, &sync.Once{})
	onceAny.(*sync.Once).Do(render)
}

// benchmarkSweepEngine times the measurement engine itself (not the
// analyses): a fresh RunSweep over a fixed corpus slice at the given worker
// count. The serial/parallel pair feeds the BENCH_*.json trajectory and
// demonstrates the worker-pool speedup; `make bench` runs them.
func benchmarkSweepEngine(b *testing.B, workers int) {
	opts := core.DefaultOptions()
	opts.MaxDatasets = 6
	opts.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := core.RunSweep(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(sw.Datasets) != opts.MaxDatasets {
			b.Fatalf("sweep returned %d datasets", len(sw.Datasets))
		}
	}
}

// BenchmarkSweepSerial is the single-worker baseline of the engine pair.
func BenchmarkSweepSerial(b *testing.B) { benchmarkSweepEngine(b, 1) }

// BenchmarkSweepParallel4 runs the same campaign with a four-worker pool;
// its measurements are byte-identical to the serial run's.
func BenchmarkSweepParallel4(b *testing.B) { benchmarkSweepEngine(b, 4) }

// BenchmarkFig3_Corpus regenerates the corpus characteristics (Fig 3a-c).
func BenchmarkFig3_Corpus(b *testing.B) {
	opts := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = synth.GenerateCorpus(opts.Profile, opts.Seed)
	}
	printArtifact("fig3", func() {
		core.WriteFig3(os.Stdout, opts.Profile, opts.Seed)
	})
}

// BenchmarkTable2_Scale regenerates the measurement-scale table.
func BenchmarkTable2_Scale(b *testing.B) {
	sw := sweep(b)
	b.ResetTimer()
	var total int
	for i := 0; i < b.N; i++ {
		total = 0
		for _, p := range sw.Platforms() {
			total += sw.ConfigCount(p) * len(sw.Datasets)
		}
	}
	b.ReportMetric(float64(total), "measurements")
	printArtifact("table2", func() { sw.WriteTable2(os.Stdout) })
}

// BenchmarkFig4_OptimizedVsBaseline regenerates the paper's headline figure.
func BenchmarkFig4_OptimizedVsBaseline(b *testing.B) {
	sw := sweep(b)
	b.ResetTimer()
	var rows []core.PlatformPerformance
	for i := 0; i < b.N; i++ {
		rows = sw.Fig4()
	}
	for _, r := range rows {
		if r.Platform == "local" {
			b.ReportMetric(r.OptimizedF1, "local-optimized-F1")
		}
		if r.Platform == "microsoft" {
			b.ReportMetric(r.OptimizedF1, "msft-optimized-F1")
		}
	}
	printArtifact("fig4", func() { sw.WriteFig4(os.Stdout) })
}

// BenchmarkTable3_Rankings regenerates both halves of Table 3.
func BenchmarkTable3_Rankings(b *testing.B) {
	sw := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sw.Table3(false)
		_ = sw.Table3(true)
	}
	printArtifact("table3", func() { sw.WriteTable3(os.Stdout) })
}

// BenchmarkFig5_ControlImprovement regenerates the per-control improvements.
func BenchmarkFig5_ControlImprovement(b *testing.B) {
	sw := sweep(b)
	b.ResetTimer()
	var rows []core.ControlImprovement
	for i := 0; i < b.N; i++ {
		rows = sw.Fig5()
	}
	clfSum, clfN := 0.0, 0
	for _, r := range rows {
		if r.Dimension == "clf" && r.Supported {
			clfSum += r.Percent
			clfN++
		}
	}
	if clfN > 0 {
		b.ReportMetric(clfSum/float64(clfN), "avg-CLF-gain-%")
	}
	printArtifact("fig5", func() { sw.WriteFig5(os.Stdout) })
}

// BenchmarkTable4_TopClassifiers regenerates the classifier rankings.
func BenchmarkTable4_TopClassifiers(b *testing.B) {
	sw := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range []string{"bigml", "predictionio", "microsoft", "local"} {
			_ = sw.Table4(p, false)
			_ = sw.Table4(p, true)
		}
	}
	printArtifact("table4", func() { sw.WriteTable4(os.Stdout) })
}

// BenchmarkFig6_Variation regenerates the performance-variation analysis.
func BenchmarkFig6_Variation(b *testing.B) {
	sw := sweep(b)
	b.ResetTimer()
	var rows []core.VariationPoint
	for i := 0; i < b.N; i++ {
		rows = sw.Fig6()
	}
	for _, r := range rows {
		if r.Platform == "local" {
			b.ReportMetric(r.Max-r.Min, "local-F1-range")
		}
	}
	printArtifact("fig6", func() { sw.WriteFig6(os.Stdout) })
}

// BenchmarkFig7_ControlVariation regenerates per-control variation shares.
func BenchmarkFig7_ControlVariation(b *testing.B) {
	sw := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sw.Fig7()
	}
	printArtifact("fig7", func() { sw.WriteFig7(os.Stdout) })
}

// BenchmarkFig8_KClassifiers regenerates the random-subset exploration
// curves.
func BenchmarkFig8_KClassifiers(b *testing.B) {
	sw := sweep(b)
	b.ResetTimer()
	var pts []core.KSubsetPoint
	for i := 0; i < b.N; i++ {
		pts = sw.Fig8()
	}
	for _, pt := range pts {
		if pt.Platform == "local" && pt.K == 3 {
			b.ReportMetric(pt.AvgBestF, "local-k3-F1")
		}
	}
	printArtifact("fig8", func() { sw.WriteFig8(os.Stdout) })
}

// BenchmarkFig9_Probes regenerates the CIRCLE/LINEAR probe datasets.
func BenchmarkFig9_Probes(b *testing.B) {
	opts := benchOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = core.ProbeDatasets(opts.Profile, opts.Seed)
	}
}

// BenchmarkFig10_Boundaries regenerates the black-box decision boundaries
// (Figure 10) plus Amazon's (Figure 13).
func BenchmarkFig10_Boundaries(b *testing.B) {
	opts := benchOptions()
	circle, linear := core.ProbeDatasets(opts.Profile, opts.Seed)
	probes := []struct {
		platform string
		ds       string
	}{
		{"google", "CIRCLE"}, {"google", "LINEAR"},
		{"abm", "CIRCLE"}, {"abm", "LINEAR"},
		{"amazon", "CIRCLE"}, // Figure 13
	}
	b.ResetTimer()
	var maps []*core.BoundaryMap
	for i := 0; i < b.N; i++ {
		maps = maps[:0]
		for _, pr := range probes {
			p, err := platforms.New(pr.platform)
			if err != nil {
				b.Fatal(err)
			}
			ds := circle
			if pr.ds == "LINEAR" {
				ds = linear
			}
			cfg := pipeline.Config{}
			if p.BaselineClassifier() != "" {
				cfg, err = p.Surface().DefaultConfig(p.BaselineClassifier())
				if err != nil {
					b.Fatal(err)
				}
			}
			bm, err := core.ExtractBoundary(p, ds, cfg, 40, opts.Seed)
			if err != nil {
				b.Fatal(err)
			}
			maps = append(maps, bm)
		}
	}
	b.StopTimer()
	printArtifact("fig10", func() {
		for i, bm := range maps {
			fmt.Printf("%s on %s (linearity %.3f)\n", probes[i].platform, probes[i].ds, bm.LinearityScore())
			fmt.Print(bm.ASCII())
		}
	})
}

// BenchmarkFig11_FamilyCDFs regenerates the linear/non-linear F-score CDFs
// on the probe datasets.
func BenchmarkFig11_FamilyCDFs(b *testing.B) {
	sw := sweep(b)
	ds := probeDatasetName(sw)
	if ds == "" {
		b.Skip("probe datasets not in the sweep slice (raise MLAAS_DATASETS)")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = sw.FamilyCDFs(ds)
	}
	printArtifact("fig11", func() { sw.WriteFamilyCDFs(os.Stdout, ds) })
}

func probeDatasetName(sw *core.Sweep) string {
	for _, name := range []string{"CIRCLE", "LINEAR"} {
		if _, ok := sw.Dataset(name); ok {
			return name
		}
	}
	return ""
}

// BenchmarkFig12_Inference regenerates the §6.2 classifier-family inference
// (Figure 12 plus the per-platform family splits).
func BenchmarkFig12_Inference(b *testing.B) {
	sw := sweep(b)
	b.ResetTimer()
	var rep *core.InferenceReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = sw.InferFamilies(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rep.Qualified)), "qualified-datasets")
	printArtifact("fig12", func() { core.WriteInference(os.Stdout, rep) })
}

// BenchmarkTable6_Fig14_Naive regenerates the §6.3 naive-strategy
// comparison against both black boxes.
func BenchmarkTable6_Fig14_Naive(b *testing.B) {
	sw := sweep(b)
	rep, err := sw.InferFamilies(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	type outcome struct {
		cmp        *core.NaiveComparison
		switchBest int
	}
	results := map[string]outcome{}
	for i := 0; i < b.N; i++ {
		for _, p := range []string{"google", "abm"} {
			cmp, err := sw.CompareNaive(p, rep)
			if err != nil {
				b.Fatal(err)
			}
			sb, err := sw.SwitchIsBestCount(p, rep)
			if err != nil {
				b.Fatal(err)
			}
			results[p] = outcome{cmp: cmp, switchBest: sb}
		}
	}
	if g, ok := results["google"]; ok {
		b.ReportMetric(float64(g.cmp.TotalWins), "naive-beats-google")
	}
	printArtifact("table6", func() {
		for _, p := range []string{"google", "abm"} {
			o := results[p]
			core.WriteNaive(os.Stdout, o.cmp, o.switchBest)
		}
	})
}

// BenchmarkAblation_AutoSelection quantifies the black boxes' hidden
// classifier auto-selection (DESIGN.md §4): Google's automatic baseline vs
// the same substrate forced to the plain Logistic Regression default (the
// local platform's baseline). The gap is the value of the server-side test
// the paper detects in §6.
func BenchmarkAblation_AutoSelection(b *testing.B) {
	sw := sweep(b)
	b.ResetTimer()
	var auto, fixed float64
	for i := 0; i < b.N; i++ {
		auto, fixed = 0, 0
		n := 0.0
		for _, ds := range sw.DatasetNames() {
			g, okG := sw.Baseline("google", ds)
			l, okL := sw.Baseline("local", ds)
			if !okG || !okL {
				continue
			}
			auto += g.Scores.F1
			fixed += l.Scores.F1
			n++
		}
		if n > 0 {
			auto /= n
			fixed /= n
		}
	}
	b.ReportMetric(auto, "google-auto-F1")
	b.ReportMetric(fixed, "fixed-LR-F1")
	printArtifact("ablation-auto", func() {
		fmt.Printf("Ablation: auto-selection — google %.3f vs fixed default LR %.3f\n", auto, fixed)
	})
}

// BenchmarkAblation_AmazonBinning quantifies Amazon's hidden quantile
// binning on the CIRCLE probe: binned LR (Amazon) vs plain LR (local), the
// mechanism behind Figure 13.
func BenchmarkAblation_AmazonBinning(b *testing.B) {
	opts := benchOptions()
	circle, _ := core.ProbeDatasets(opts.Profile, opts.Seed)
	split := circle.StratifiedSplit(0.7, rngSplit(opts.Seed, circle.Name))
	b.ResetTimer()
	var binned, plain float64
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"amazon", "local"} {
			p, err := platforms.New(name)
			if err != nil {
				b.Fatal(err)
			}
			cfg, err := p.Surface().DefaultConfig("logreg")
			if err != nil {
				b.Fatal(err)
			}
			res, err := p.Run(cfg, split.Train, split.Test, opts.Seed)
			if err != nil {
				b.Fatal(err)
			}
			if name == "amazon" {
				binned = res.Scores.F1
			} else {
				plain = res.Scores.F1
			}
		}
	}
	b.ReportMetric(binned, "binned-LR-F1")
	b.ReportMetric(plain, "plain-LR-F1")
	printArtifact("ablation-binning", func() {
		fmt.Printf("Ablation: Amazon binning on CIRCLE — binned LR %.3f vs plain LR %.3f\n", binned, plain)
	})
}

// BenchmarkAblation_MetricAgreement validates the §3.2 choice of average
// F-score by its Spearman agreement with the Friedman ranking.
func BenchmarkAblation_MetricAgreement(b *testing.B) {
	sw := sweep(b)
	b.ResetTimer()
	var base, opt float64
	for i := 0; i < b.N; i++ {
		base = sw.MetricAgreement(false)
		opt = sw.MetricAgreement(true)
	}
	b.ReportMetric(base, "baseline-spearman")
	b.ReportMetric(opt, "optimized-spearman")
	printArtifact("ablation-metric", func() {
		fmt.Printf("Ablation: avg-F vs Friedman ranking agreement — baseline %.2f, optimized %.2f\n", base, opt)
	})
}

// BenchmarkAblation_Imputation compares the paper's median imputation
// against naive zero-fill on a missing-heavy dataset (DESIGN.md §4).
func BenchmarkAblation_Imputation(b *testing.B) {
	opts := benchOptions()
	spec := synth.Spec{
		Name: "ablate-missing", Gen: synth.GenLinear,
		N: 240, D: 8, Noise: 0.3, MissingRate: 0.25,
	}
	b.ResetTimer()
	var median, zero float64
	for i := 0; i < b.N; i++ {
		for _, mode := range []string{"median", "zero"} {
			ds := synth.Generate(spec, opts.Profile, opts.Seed)
			ds.EncodeCategorical()
			if mode == "median" {
				ds.Impute()
			} else {
				ds.ImputeConstant(0)
			}
			split := ds.StratifiedSplit(0.7, rngSplit(opts.Seed, spec.Name+mode))
			res, err := pipeline.Run(context.Background(), pipeline.Config{Classifier: "logreg", Params: map[string]any{}},
				split.Train, split.Test, rngSplit(opts.Seed, "fit"+mode), nil)
			if err != nil {
				b.Fatal(err)
			}
			if mode == "median" {
				median = res.Scores.F1
			} else {
				zero = res.Scores.F1
			}
		}
	}
	b.ReportMetric(median, "median-impute-F1")
	b.ReportMetric(zero, "zero-impute-F1")
	printArtifact("ablation-impute", func() {
		fmt.Printf("Ablation: imputation — median %.3f vs zero-fill %.3f (25%% missing)\n", median, zero)
	})
}

// BenchmarkAblation_GridRule compares the paper's one-at-a-time parameter
// scan against the exhaustive cartesian product on one platform surface —
// the DESIGN.md ablation showing PARA gains saturate.
func BenchmarkAblation_GridRule(b *testing.B) {
	p, err := platforms.New("bigml")
	if err != nil {
		b.Fatal(err)
	}
	surf := p.Surface()
	b.ResetTimer()
	var scan, full int
	for i := 0; i < b.N; i++ {
		scan, full = 0, 0
		for _, cs := range surf.Classifiers {
			scan += len(pipeline.ParamGrid(cs))
			full += len(pipeline.ParamGridFull(cs))
		}
	}
	b.ReportMetric(float64(scan), "scan-configs")
	b.ReportMetric(float64(full), "cartesian-configs")
}
