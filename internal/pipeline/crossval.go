package pipeline

import (
	"context"
	"fmt"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/metrics"
	"mlaasbench/internal/rng"
)

// CrossValidate evaluates a configuration with stratified k-fold cross
// validation on a dataset and returns the per-fold scores. The paper's
// family-inference methodology trains with 5-fold CV (§6.2); this is the
// general-purpose version exposed to library users.
func CrossValidate(cfg Config, ds *dataset.Dataset, k int, r *rng.RNG) ([]metrics.Scores, error) {
	if k < 2 {
		return nil, fmt.Errorf("pipeline: k-fold needs k ≥ 2, got %d", k)
	}
	if ds.N() < k {
		return nil, fmt.Errorf("pipeline: %d samples cannot fill %d folds", ds.N(), k)
	}
	folds := stratifiedFolds(ds, k, r)
	// The index buffers are sized once from the fold sizes and reused across
	// folds (Subset copies what it needs): growing them with append from nil
	// every fold is O(k²) allocation churn over the k iterations.
	maxFold := 0
	for _, fold := range folds {
		if len(fold) > maxFold {
			maxFold = len(fold)
		}
	}
	trainIdx := make([]int, 0, ds.N())
	testIdx := make([]int, 0, maxFold)
	out := make([]metrics.Scores, 0, k)
	for fi := 0; fi < k; fi++ {
		trainIdx, testIdx = trainIdx[:0], testIdx[:0]
		for fj, fold := range folds {
			if fj == fi {
				testIdx = append(testIdx, fold...)
			} else {
				trainIdx = append(trainIdx, fold...)
			}
		}
		if len(trainIdx) == 0 || len(testIdx) == 0 {
			continue
		}
		train := ds.Subset(trainIdx, fmt.Sprintf("/cv%d-train", fi))
		test := ds.Subset(testIdx, fmt.Sprintf("/cv%d-test", fi))
		res, err := Run(context.Background(), cfg, train, test, r.Split(fmt.Sprintf("cv/%d", fi)), nil)
		if err != nil {
			return nil, fmt.Errorf("pipeline: fold %d: %w", fi, err)
		}
		out = append(out, res.Scores)
	}
	return out, nil
}

// MeanF1 averages the F-scores of a fold result set.
func MeanF1(scores []metrics.Scores) float64 {
	if len(scores) == 0 {
		return 0
	}
	s := 0.0
	for _, sc := range scores {
		s += sc.F1
	}
	return s / float64(len(scores))
}

// stratifiedFolds assigns sample indices to k folds, keeping the class
// ratio approximately constant per fold.
func stratifiedFolds(ds *dataset.Dataset, k int, r *rng.RNG) [][]int {
	var pos, neg []int
	for i, y := range ds.Y {
		if y == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	r.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	r.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	folds := make([][]int, k)
	for i, idx := range pos {
		folds[i%k] = append(folds[i%k], idx)
	}
	for i, idx := range neg {
		// Offset the round-robin so small classes don't pile on fold 0.
		f := (i + len(pos)) % k
		folds[f] = append(folds[f], idx)
	}
	return folds
}

// SelectConfig picks the best of the given configurations by k-fold
// cross-validated F-score on the training data — model selection without
// touching the test set.
func SelectConfig(configs []Config, train *dataset.Dataset, k int, r *rng.RNG) (Config, float64, error) {
	if len(configs) == 0 {
		return Config{}, 0, fmt.Errorf("pipeline: no configurations to select from")
	}
	best := configs[0]
	bestF1 := -1.0
	for _, cfg := range configs {
		scores, err := CrossValidate(cfg, train, k, r.Split("sel/"+cfg.String()))
		if err != nil {
			continue // an untrainable config simply loses the selection
		}
		if f1 := MeanF1(scores); f1 > bestF1 {
			bestF1 = f1
			best = cfg
		}
	}
	if bestF1 < 0 {
		return Config{}, 0, fmt.Errorf("pipeline: every configuration failed cross-validation")
	}
	return best, bestF1, nil
}
