package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/metrics"
	"mlaasbench/internal/stats"
	"mlaasbench/internal/synth"
)

// This file renders every reproduced table and figure as text, in the
// layout of the paper's artifacts. Each WriteX function is the output side
// of one experiment in DESIGN.md's index; cmd/mlaas-bench and the
// benchmark harness call them.

// WriteFig3 prints the corpus characteristics: the Figure-3(a) domain
// breakdown and the 3(b)/3(c) sample/feature count distributions.
func WriteFig3(w io.Writer, p synth.Profile, seed uint64) {
	specs := synth.Corpus()
	counts := map[dataset.Domain]int{}
	var domains []dataset.Domain // in order of first appearance
	var samples, feats []float64
	for _, spec := range specs {
		if counts[spec.Domain] == 0 {
			domains = append(domains, spec.Domain)
		}
		counts[spec.Domain]++
		ds := synth.GenerateClean(spec, p, seed)
		samples = append(samples, float64(ds.N()))
		feats = append(feats, float64(ds.D()))
	}
	fmt.Fprintf(w, "Figure 3(a): application domains (%d datasets)\n", len(specs))
	// Ties keep corpus order, so the table is the same on every run.
	sort.SliceStable(domains, func(a, b int) bool { return counts[domains[a]] > counts[domains[b]] })
	for _, d := range domains {
		fmt.Fprintf(w, "  %-24s %3d\n", d, counts[d])
	}
	fmt.Fprintf(w, "Figure 3(b): samples per dataset (profile %s)\n", p.Name)
	writeQuantiles(w, samples)
	fmt.Fprintf(w, "Figure 3(c): features per dataset\n")
	writeQuantiles(w, feats)
}

func writeQuantiles(w io.Writer, vals []float64) {
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		fmt.Fprintf(w, "  p%-3.0f %8.0f\n", q*100, stats.Quantile(vals, q))
	}
}

// WriteTable2 prints the measurement-scale table: per platform, the number
// of FEAT options, classifiers, parameters and total per-dataset
// configurations in this reproduction (the paper's Table 2 reports the
// same structure at production scale).
func (s *Sweep) WriteTable2(w io.Writer) {
	fmt.Fprintf(w, "Table 2: scale of the measurements (%d datasets, profile %s)\n", len(s.Datasets), s.Opts.Profile.Name)
	fmt.Fprintf(w, "  %-14s %6s %6s %7s %14s\n", "platform", "#feat", "#clf", "#param", "#measurements")
	for _, p := range s.Platforms() {
		var feats, clfs, params int
		seenFeat := map[string]bool{}
		seenClf := map[string]bool{}
		seenParam := map[string]bool{}
		for _, ds := range s.DatasetNames() {
			for _, m := range s.ByPlatform[p][ds] {
				seenFeat[m.Config.Feat.String()] = true
				seenClf[m.Config.Classifier] = true
				for k := range m.Config.Params {
					seenParam[m.Config.Classifier+"/"+k] = true
				}
			}
			break // enumeration is identical across datasets
		}
		feats = len(seenFeat)
		if seenFeat["none"] {
			feats-- // "none" is the absence of the control
		}
		clfs = len(seenClf)
		params = len(seenParam)
		total := s.ConfigCount(p) * len(s.Datasets)
		fmt.Fprintf(w, "  %-14s %6d %6d %7d %14d\n", p, feats, clfs, params, total)
	}
}

// WriteFig4 prints the baseline/optimized bars of Figure 4.
func (s *Sweep) WriteFig4(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: optimized and baseline F-score per platform (complexity ascending)")
	fmt.Fprintf(w, "  %-14s %9s %9s %9s\n", "platform", "baseline", "optimized", "±stderr")
	for _, r := range s.Fig4() {
		fmt.Fprintf(w, "  %-14s %9.3f %9.3f %9.3f\n", r.Platform, r.BaselineF1, r.OptimizedF1, r.OptimizedStdErr)
	}
}

// WriteTable3 prints both halves of Table 3.
func (s *Sweep) WriteTable3(w io.Writer) {
	for _, optimized := range []bool{false, true} {
		title := "(a) Baseline performance"
		if optimized {
			title = "(b) Optimized performance"
		}
		fmt.Fprintf(w, "Table 3%s\n", title)
		fmt.Fprintf(w, "  %-14s %9s", "platform", "avgFried")
		for _, m := range metrics.MetricNames() {
			fmt.Fprintf(w, " %18s", m)
		}
		fmt.Fprintln(w)
		for _, row := range s.Table3(optimized) {
			fmt.Fprintf(w, "  %-14s %9.1f", row.Platform, row.AvgFriedman)
			for _, m := range metrics.MetricNames() {
				fmt.Fprintf(w, "    %6.3f (%6.1f)", row.Avg[m], row.Friedman[m])
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteFig5 prints the per-control relative improvements of Figure 5.
func (s *Sweep) WriteFig5(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: relative F-score improvement over baseline per control dimension (%)")
	fmt.Fprintf(w, "  %-14s %12s %12s %12s\n", "platform", "FEAT", "CLF", "PARA")
	byPlat := map[string]map[string]ControlImprovement{}
	for _, ci := range s.Fig5() {
		if byPlat[ci.Platform] == nil {
			byPlat[ci.Platform] = map[string]ControlImprovement{}
		}
		byPlat[ci.Platform][ci.Dimension] = ci
	}
	for _, p := range s.Platforms() {
		dims, ok := byPlat[p]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-14s", p)
		for _, d := range Dimensions() {
			ci := dims[d]
			if !ci.Supported {
				fmt.Fprintf(w, " %12s", "no data")
			} else {
				fmt.Fprintf(w, " %11.1f%%", ci.Percent)
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteTable4 prints the classifier rankings of Table 4 for both parameter
// regimes.
func (s *Sweep) WriteTable4(w io.Writer) {
	platformsWithCLF := []string{"bigml", "predictionio", "microsoft", "local"}
	for _, optimized := range []bool{false, true} {
		title := "(a) baseline parameters"
		if optimized {
			title = "(b) optimized parameters"
		}
		fmt.Fprintf(w, "Table 4%s: top classifiers by share of datasets won\n", title)
		for _, p := range platformsWithCLF {
			if _, ok := s.ByPlatform[p]; !ok {
				continue
			}
			ranks := s.Table4(p, optimized)
			fmt.Fprintf(w, "  %-14s", p)
			for _, r := range ranks {
				fmt.Fprintf(w, "  %s (%.1f%%)", r.Label, r.Fraction*100)
			}
			fmt.Fprintln(w)
		}
	}
}

// WriteFig6 prints the overall performance-variation boxes of Figure 6.
func (s *Sweep) WriteFig6(w io.Writer) {
	fmt.Fprintln(w, "Figure 6: performance variation across configurations (avg F-score over datasets)")
	fmt.Fprintf(w, "  %-14s %8s %8s %8s %8s %8s %8s\n", "platform", "min", "q1", "median", "q3", "max", "configs")
	for _, v := range s.Fig6() {
		fmt.Fprintf(w, "  %-14s %8.3f %8.3f %8.3f %8.3f %8.3f %8d\n", v.Platform, v.Min, v.Q1, v.Median, v.Q3, v.Max, v.Configs)
	}
}

// WriteFig7 prints the per-dimension variation of Figure 7, normalized by
// the platform's overall variation.
func (s *Sweep) WriteFig7(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: share of overall variation captured by tuning one control")
	overall := s.Fig6()
	fmt.Fprintf(w, "  %-14s %10s %10s %10s\n", "platform", "FEAT", "CLF", "PARA")
	byPlat := map[string]map[string]VariationPoint{}
	for _, v := range s.Fig7() {
		if byPlat[v.Platform] == nil {
			byPlat[v.Platform] = map[string]VariationPoint{}
		}
		byPlat[v.Platform][v.Dimension] = v
	}
	for _, p := range s.Platforms() {
		dims, ok := byPlat[p]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-14s", p)
		for _, d := range Dimensions() {
			v := dims[d]
			if !v.Supported {
				fmt.Fprintf(w, " %10s", "no data")
			} else {
				fmt.Fprintf(w, " %10.2f", NormalizedRange(v, overall))
			}
		}
		fmt.Fprintln(w)
	}
}

// WriteFig8 prints the k-classifier exploration curves of Figure 8.
func (s *Sweep) WriteFig8(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: expected best F-score vs number of classifiers explored")
	pts := s.Fig8()
	byPlat := map[string][]KSubsetPoint{}
	for _, pt := range pts {
		byPlat[pt.Platform] = append(byPlat[pt.Platform], pt)
	}
	for _, p := range s.Platforms() {
		series, ok := byPlat[p]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-14s", p)
		for _, pt := range series {
			fmt.Fprintf(w, " k%d=%.3f", pt.K, pt.AvgBestF)
		}
		fmt.Fprintln(w)
	}
}

// WriteInference prints the §6.2 findings: Figure 12's validation CDF and
// the per-platform family splits.
func WriteInference(w io.Writer, rep *InferenceReport) {
	fmt.Fprintf(w, "§6.2: classifier-family inference (%d models trained, %d qualified > %.2f val F1)\n",
		len(rep.Models), len(rep.Qualified), QualifyThreshold)
	fmt.Fprintln(w, "Figure 12: validation F-score CDF of family models")
	writeCDF(w, rep.ValidationCDF(), 8)
	for _, p := range sortedKeys(rep.Choices) {
		lin, non := rep.LinearCount[p], rep.NonLinearCount[p]
		total := lin + non
		if total == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-14s linear %d/%d (%.1f%%)  non-linear %d/%d (%.1f%%)\n",
			p, lin, total, 100*float64(lin)/float64(total), non, total, 100*float64(non)/float64(total))
	}
	if rep.Agreement+rep.Disagreement > 0 {
		fmt.Fprintf(w, "  google vs abm: agree on %d, disagree on %d datasets\n", rep.Agreement, rep.Disagreement)
	}
}

// WriteNaive prints Table 6 and the Figure-14 gap CDF for one platform.
func WriteNaive(w io.Writer, cmp *NaiveComparison, switchBest int) {
	fmt.Fprintf(w, "Table 6: naive strategy vs %s (%d qualified datasets, naive wins %d)\n",
		cmp.Platform, cmp.TotalQualified, cmp.TotalWins)
	fmt.Fprintf(w, "  %-22s %-16s %-16s\n", "", "naive: linear", "naive: non-linear")
	fmt.Fprintf(w, "  %-22s %-16d %-16d\n", cmp.Platform+": linear", cmp.Wins[0][0], cmp.Wins[0][1])
	fmt.Fprintf(w, "  %-22s %-16d %-16d\n", cmp.Platform+": non-linear", cmp.Wins[1][0], cmp.Wins[1][1])
	fmt.Fprintf(w, "Figure 14: F-score gap CDF where naive wins with a different family (avg %.3f, %d datasets)\n",
		cmp.AvgGapDifferentFamily, len(cmp.Gaps))
	writeCDF(w, cmp.GapCDF(), 8)
	fmt.Fprintf(w, "  switching family is the only fix on %d datasets\n", switchBest)
}

// writeCDF prints up to maxPoints evenly spaced steps of a CDF.
func writeCDF(w io.Writer, pts []stats.CDFPoint, maxPoints int) {
	if len(pts) == 0 {
		fmt.Fprintln(w, "  (empty)")
		return
	}
	stride := 1
	if len(pts) > maxPoints {
		stride = len(pts) / maxPoints
	}
	var parts []string
	for i := 0; i < len(pts); i += stride {
		parts = append(parts, fmt.Sprintf("%.3f→%.2f", pts[i].X, pts[i].P))
	}
	if (len(pts)-1)%stride != 0 {
		last := pts[len(pts)-1]
		parts = append(parts, fmt.Sprintf("%.3f→%.2f", last.X, last.P))
	}
	fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
}

// WriteFamilyCDFs prints the Figure-11 linear/non-linear F-score CDFs for a
// probe dataset.
func (s *Sweep) WriteFamilyCDFs(w io.Writer, ds string) {
	lin, non := s.FamilyCDFs(ds)
	fmt.Fprintf(w, "Figure 11 (%s): F-score CDFs by classifier family\n", ds)
	fmt.Fprint(w, "  linear:     ")
	writeCDF(w, lin, 6)
	fmt.Fprint(w, "  non-linear: ")
	writeCDF(w, non, 6)
}
