package core

import (
	"fmt"
	"io"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/metrics"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

// Extension analyses beyond the paper's figures, grounded in its §3.2 and
// §8 discussions: the AUC metric the paper could not collect (several
// platforms expose no prediction score) and robustness to incorrect
// (label-noised) input.

// ScoreExposingPlatforms lists the platforms whose APIs return prediction
// scores. The paper names PredictionIO and several BigML classifiers as
// score-less (§3.2); the other services expose probabilities or margins.
func ScoreExposingPlatforms() map[string]bool {
	return map[string]bool{
		"google": true, "abm": true, "amazon": true,
		"microsoft": true, "local": true,
	}
}

// AUCRow is one platform's AUC study result.
type AUCRow struct {
	Platform string  `json:"platform"`
	HasScore bool    `json:"has_score"`
	AvgF1    float64 `json:"avg_f1"`
	AvgAUC   float64 `json:"avg_auc"` // 0 when the platform hides scores
	Datasets int     `json:"datasets"`
}

// AUCStudy measures each platform's baseline configuration across the
// first maxDatasets corpus datasets, collecting F-score always and AUC only
// where the platform exposes scores — quantifying what the paper lost by
// being forced onto F-score alone.
func AUCStudy(profile synth.Profile, seed uint64, maxDatasets int) ([]AUCRow, error) {
	specs := synth.Corpus()
	if maxDatasets > 0 && maxDatasets < len(specs) {
		specs = specs[:maxDatasets]
	}
	scoreOK := ScoreExposingPlatforms()
	rows := make([]AUCRow, 0, len(platforms.Names()))
	for _, name := range platforms.Names() {
		p, err := platforms.New(name)
		if err != nil {
			return nil, err
		}
		row := AUCRow{Platform: name, HasScore: scoreOK[name]}
		var f1s, aucs []float64
		for _, spec := range specs {
			ds := synth.GenerateClean(spec, profile, seed)
			sp := ds.StratifiedSplit(0.7, rng.New(seed).Split("auc/"+ds.Name))
			cfg := pipeline.Config{}
			if bc := p.BaselineClassifier(); bc != "" {
				cfg, err = p.Surface().DefaultConfig(bc)
				if err != nil {
					return nil, err
				}
			}
			res, err := p.Run(cfg, sp.Train, sp.Test, seed)
			if err != nil {
				return nil, fmt.Errorf("core: auc study %s on %s: %w", name, ds.Name, err)
			}
			f1s = append(f1s, res.Scores.F1)
			if !row.HasScore {
				continue
			}
			auc, err := baselineAUC(p, cfg, sp, seed, res.Pred)
			if err != nil {
				return nil, err
			}
			aucs = append(aucs, auc)
		}
		row.Datasets = len(f1s)
		row.AvgF1 = metrics.Mean(f1s)
		row.AvgAUC = metrics.Mean(aucs)
		rows = append(rows, row)
	}
	return rows, nil
}

// baselineAUC retrains the platform's configuration locally to obtain
// scores. Black boxes are scored via their internally chosen config's
// behaviour: we approximate with pred, their test-set labels from the
// measured run (0/1 scores), which is exactly the degraded information an
// external measurer gets when a service returns a score that is really a
// hard label.
func baselineAUC(p platforms.Platform, cfg pipeline.Config, sp dataset.Split, seed uint64, pred []int) (float64, error) {
	if p.BaselineClassifier() == "" {
		scores := make([]float64, len(pred))
		for i, v := range pred {
			scores[i] = float64(v)
		}
		return metrics.AUC(sp.Test.Y, scores), nil
	}
	clf, err := classifiers.New(cfg.Classifier, cfg.Params)
	if err != nil {
		return 0, err
	}
	if err := clf.Fit(sp.Train.X, sp.Train.Y, rng.New(seed).Split("aucfit/"+sp.Train.Name)); err != nil {
		return 0, err
	}
	scorer, ok := clf.(classifiers.Scorer)
	if !ok {
		return 0, fmt.Errorf("core: classifier %s does not score", cfg.Classifier)
	}
	return metrics.AUC(sp.Test.Y, scorer.PredictScore(sp.Test.X)), nil
}

// WriteAUCStudy renders the AUC extension table.
func WriteAUCStudy(w io.Writer, rows []AUCRow) {
	fmt.Fprintln(w, "Extension (§3.2): F-score vs AUC where platforms expose scores")
	fmt.Fprintf(w, "  %-14s %8s %8s %10s\n", "platform", "avg F1", "avg AUC", "scores?")
	for _, r := range rows {
		aucStr := "   n/a"
		if r.HasScore {
			aucStr = fmt.Sprintf("%8.3f", r.AvgAUC)
		}
		yes := "hidden"
		if r.HasScore {
			yes = "exposed"
		}
		fmt.Fprintf(w, "  %-14s %8.3f %s %10s\n", r.Platform, r.AvgF1, aucStr, yes)
	}
	fmt.Fprintln(w, "  (PredictionIO and BigML hide prediction scores, as in the paper)")
}

// NoisePoint is one platform's baseline F-score at one injected label-noise
// level.
type NoisePoint struct {
	Platform string  `json:"platform"`
	Noise    float64 `json:"noise"`
	AvgF1    float64 `json:"avg_f1"`
}

// NoiseRobustness measures each platform's baseline under increasing label
// noise — the §8 "robustness to incorrect input" future-work axis. Two
// probe concepts (one linear, one not) are regenerated at each noise level.
func NoiseRobustness(profile synth.Profile, seed uint64, levels []float64) ([]NoisePoint, error) {
	if len(levels) == 0 {
		levels = []float64{0, 0.05, 0.1, 0.2}
	}
	var out []NoisePoint
	for _, name := range platforms.Names() {
		p, err := platforms.New(name)
		if err != nil {
			return nil, err
		}
		for _, noise := range levels {
			var f1s []float64
			for _, gen := range []synth.Generator{synth.GenLinear, synth.GenMoons} {
				spec := synth.Spec{
					Name:       fmt.Sprintf("noise-%s-%.2f", gen, noise),
					Gen:        gen,
					N:          240,
					D:          4,
					Noise:      0.2,
					LabelNoise: noise,
				}
				ds := synth.GenerateClean(spec, profile, seed)
				sp := ds.StratifiedSplit(0.7, rng.New(seed).Split("robust/"+ds.Name))
				cfg := pipeline.Config{}
				if bc := p.BaselineClassifier(); bc != "" {
					cfg, err = p.Surface().DefaultConfig(bc)
					if err != nil {
						return nil, err
					}
				}
				res, err := p.Run(cfg, sp.Train, sp.Test, seed)
				if err != nil {
					return nil, fmt.Errorf("core: robustness %s: %w", name, err)
				}
				f1s = append(f1s, res.Scores.F1)
			}
			out = append(out, NoisePoint{Platform: name, Noise: noise, AvgF1: metrics.Mean(f1s)})
		}
	}
	return out, nil
}

// WriteNoiseRobustness renders the robustness extension: platforms × noise
// levels.
func WriteNoiseRobustness(w io.Writer, pts []NoisePoint) {
	fmt.Fprintln(w, "Extension (§8): baseline F-score under injected label noise")
	byPlat := map[string][]NoisePoint{}
	var order []string
	for _, pt := range pts {
		if _, ok := byPlat[pt.Platform]; !ok {
			order = append(order, pt.Platform)
		}
		byPlat[pt.Platform] = append(byPlat[pt.Platform], pt)
	}
	for _, p := range order {
		fmt.Fprintf(w, "  %-14s", p)
		for _, pt := range byPlat[p] {
			fmt.Fprintf(w, "  %.0f%%→%.3f", pt.Noise*100, pt.AvgF1)
		}
		fmt.Fprintln(w)
	}
}
