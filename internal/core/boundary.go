package core

import (
	"context"
	"fmt"
	"strings"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

// BoundaryMap is a labeled mesh over a 2-D dataset — the paper's probe for
// visualizing a black-box platform's decision boundary (§6.1, Figures 10
// and 13): query the trained model on a steps×steps grid and plot the
// predicted classes.
type BoundaryMap struct {
	Platform string      `json:"platform"`
	Dataset  string      `json:"dataset"`
	Steps    int         `json:"steps"`
	Points   [][]float64 `json:"points"`
	Labels   []int       `json:"labels"`
}

// ExtractBoundary trains the platform on the full probe dataset and labels
// a steps×steps mesh over its bounding box. For user platforms, cfg selects
// the configuration; black boxes ignore it.
func ExtractBoundary(p platforms.Platform, probe *dataset.Dataset, cfg pipeline.Config, steps int, seed uint64) (*BoundaryMap, error) {
	if probe.D() < 2 {
		return nil, fmt.Errorf("core: boundary probe needs a 2-D dataset, got %d-D", probe.D())
	}
	pts := probe.MeshGrid(steps, 0.25)
	fm, err := p.Fit(cfg, probe, seed)
	if err != nil {
		return nil, fmt.Errorf("core: boundary probe on %s: %w", p.Name(), err)
	}
	return &BoundaryMap{
		Platform: p.Name(),
		Dataset:  probe.Name,
		Steps:    steps,
		Points:   pts,
		Labels:   fm.Predict(pts),
	}, nil
}

// ProbeDatasets generates the two §6 probe datasets, CIRCLE and LINEAR,
// under the given profile.
func ProbeDatasets(profile synth.Profile, seed uint64) (circle, linear *dataset.Dataset) {
	return synth.GenerateClean(synth.CircleSpec(), profile, seed),
		synth.GenerateClean(synth.LinearSpec(), profile, seed)
}

// ASCII renders the boundary as a text raster (rows = feature 2 descending,
// cols = feature 1 ascending), '·' for class 0 and '#' for class 1 — the
// repo's stand-in for the paper's scatter plots.
func (b *BoundaryMap) ASCII() string {
	var sb strings.Builder
	// Points were generated column-major: i over x (rows of loop), j over y.
	// Rebuild the grid: index = i*steps + j, x ascending with i, y ascending
	// with j. Render y descending (top of plot = max y).
	for j := b.Steps - 1; j >= 0; j-- {
		for i := 0; i < b.Steps; i++ {
			if b.Labels[i*b.Steps+j] == 1 {
				sb.WriteByte('#')
			} else {
				sb.WriteByte('\xc2')
				sb.WriteByte('\xb7') // '·'
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// LinearityScore measures how well a single straight line explains the
// boundary: it fits the best linear separator to the mesh labels (via LDA
// on the mesh points) and returns the fraction of mesh points that
// separator reproduces. Values near 1 indicate a linear boundary; curved or
// closed boundaries score lower. This quantifies the visual judgement of
// Figure 10.
func (b *BoundaryMap) LinearityScore() float64 {
	if len(b.Labels) == 0 {
		return 0
	}
	// Degenerate single-class maps are trivially linear.
	pos := 0
	for _, l := range b.Labels {
		pos += l
	}
	if pos == 0 || pos == len(b.Labels) {
		return 1
	}
	cfg := pipeline.Config{Classifier: "lda", Params: map[string]any{}}
	meshTrain := &dataset.Dataset{Name: b.Dataset + "/meshfit", X: b.Points, Y: b.Labels}
	fp, err := pipeline.Fit(context.Background(), cfg, meshTrain, rng.New(0xb0d1), nil)
	if err != nil {
		return 0
	}
	pred := fp.Predict(b.Points)
	agree := 0
	for i := range pred {
		if pred[i] == b.Labels[i] {
			agree++
		}
	}
	return float64(agree) / float64(len(pred))
}
