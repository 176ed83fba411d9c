// Package mlaas is a reproduction of "Complexity vs. Performance: Empirical
// Analysis of Machine Learning as a Service" (Yao et al., IMC 2017) as a
// reusable Go library.
//
// It bundles four layers, each usable on its own:
//
//   - a pure-Go binary-classification library: 13 classifiers, 8 filter
//     feature-selection methods, 6 scalers and deterministic training
//     (subpackages internal/classifiers, internal/featsel,
//     internal/preprocess, re-exported here through RunPipeline);
//
//   - simulated MLaaS platforms with the exact control surfaces the paper
//     measured — ABM, Google, Amazon, PredictionIO, BigML, Microsoft and a
//     fully controllable "local" arm — including the black boxes' hidden
//     classifier auto-selection and Amazon's hidden quantile binning;
//
//   - an HTTP service/client pair mirroring the web-API measurement
//     methodology;
//
//   - the measurement framework and analyses that regenerate every table
//     and figure of the paper's evaluation (RunSweep plus the Sweep
//     methods; see DESIGN.md for the experiment index).
//
// Quickstart:
//
//	ds := mlaas.Dataset("CIRCLE")                  // one of the 119-corpus datasets
//	split := mlaas.Split(ds, 0x5eed)               // stratified 70/30
//	p, _ := mlaas.Platform("microsoft")
//	cfg, _ := p.Surface().DefaultConfig("boosted") // defaults for one classifier
//	res, _ := p.Run(cfg, split.Train, split.Test, 0x5eed)
//	fmt.Println(res.Scores.F1)
package mlaas

import (
	"context"
	"io"
	"net/http"

	"mlaasbench/internal/client"
	"mlaasbench/internal/core"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/metrics"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/service"
	"mlaasbench/internal/synth"
)

// Re-exported core types. The aliases keep one importable surface while the
// implementation stays in focused internal packages.
type (
	// DatasetT is a labeled binary-classification dataset.
	DatasetT = dataset.Dataset
	// SplitT is a train/test partition.
	SplitT = dataset.Split
	// Config selects one pipeline configuration (FEAT + CLF + PARA).
	Config = pipeline.Config
	// Feat is one option of the FEAT control dimension.
	Feat = pipeline.Feat
	// Scores bundles F-score, accuracy, precision and recall.
	Scores = metrics.Scores
	// PlatformT is a simulated MLaaS platform.
	PlatformT = platforms.Platform
	// Sweep is a completed measurement campaign with analysis methods
	// (Fig4, Table3, Fig5, Table4, Fig6, Fig7, Fig8, InferFamilies,
	// NaiveStrategy, ...).
	Sweep = core.Sweep
	// SweepOptions configures RunSweep.
	SweepOptions = core.Options
	// Measurement is one (platform, dataset, config) observation.
	Measurement = core.Measurement
	// Profile caps corpus generation cost ("quick" or "full").
	Profile = synth.Profile
	// Spec describes one synthetic corpus dataset.
	Spec = synth.Spec
	// BoundaryMap is a labeled decision-boundary mesh (§6.1).
	BoundaryMap = core.BoundaryMap
	// Client measures platforms over HTTP.
	Client = client.Client
)

// Profiles.
var (
	// Quick is the laptop-scale corpus profile (default).
	Quick = synth.Quick
	// Full pushes dataset sizes closer to paper scale.
	Full = synth.Full
)

// DefaultSeed roots all randomness of the standard experiments.
const DefaultSeed = synth.CorpusSeed

// Corpus returns the 119-dataset catalog (Figure 3 marginals).
func Corpus() []Spec { return synth.Corpus() }

// Dataset generates one corpus dataset by name under the Quick profile,
// preprocessed as in §3.1 (categoricals encoded, missing values imputed).
// It panics on unknown names; use CorpusByName for a checked lookup.
func Dataset(name string) *DatasetT {
	spec, ok := synth.CorpusByName(name)
	if !ok {
		panic("mlaas: unknown corpus dataset " + name)
	}
	return synth.GenerateClean(spec, synth.Quick, DefaultSeed)
}

// CorpusByName returns the spec for a corpus dataset.
func CorpusByName(name string) (Spec, bool) { return synth.CorpusByName(name) }

// Generate materializes a custom spec under a profile.
func Generate(spec Spec, p Profile, seed uint64) *DatasetT {
	return synth.GenerateClean(spec, p, seed)
}

// Split partitions a dataset 70/30 with stratified sampling (§3.1).
func Split(ds *DatasetT, seed uint64) SplitT {
	return ds.StratifiedSplit(0.7, rng.New(seed).Split("split/"+ds.Name))
}

// Platform constructs a simulated platform: "google", "abm", "amazon",
// "bigml", "predictionio", "microsoft" or "local".
func Platform(name string) (PlatformT, error) { return platforms.New(name) }

// Platforms lists the platform names in complexity order.
func Platforms() []string { return platforms.Names() }

// RunPipeline executes one configuration on a split using the local
// library (no platform restrictions) and returns its scores.
func RunPipeline(cfg Config, split SplitT, seed uint64) (Scores, error) {
	res, err := pipeline.Run(context.Background(), cfg, split.Train, split.Test, rng.New(seed), nil)
	if err != nil {
		return Scores{}, err
	}
	return res.Scores, nil
}

// RunSweep executes the full measurement campaign and returns the analysis
// object behind every table and figure.
func RunSweep(ctx context.Context, opts SweepOptions) (*Sweep, error) {
	return core.RunSweep(ctx, opts)
}

// DefaultSweepOptions returns the standard quick-profile options.
func DefaultSweepOptions() SweepOptions { return core.DefaultOptions() }

// ExtractBoundary probes a platform's decision boundary on a 2-D dataset
// with a steps×steps mesh (§6.1).
func ExtractBoundary(p PlatformT, probe *DatasetT, cfg Config, steps int, seed uint64) (*BoundaryMap, error) {
	return core.ExtractBoundary(p, probe, cfg, steps, seed)
}

// ProbeDatasets returns the §6 CIRCLE and LINEAR probe datasets.
func ProbeDatasets(p Profile, seed uint64) (circle, linear *DatasetT) {
	return core.ProbeDatasets(p, seed)
}

// CrossValidate evaluates a configuration with stratified k-fold cross
// validation and returns per-fold scores.
func CrossValidate(cfg Config, ds *DatasetT, k int, seed uint64) ([]Scores, error) {
	return pipeline.CrossValidate(cfg, ds, k, rng.New(seed))
}

// SelectConfig picks the best of the configurations by cross-validated
// F-score on the training data.
func SelectConfig(configs []Config, train *DatasetT, k int, seed uint64) (Config, float64, error) {
	return pipeline.SelectConfig(configs, train, k, rng.New(seed))
}

// ExploreRandomClassifiers applies the paper's §5.2 recipe: try a random
// subset of k of the platform's classifiers (each tuned by CV on the
// training data) and return the winner — near-optimal at k≈3 (Figure 8).
func ExploreRandomClassifiers(p PlatformT, split SplitT, k int, seed uint64) (*core.ExploreResult, error) {
	return core.ExploreRandomClassifiers(p, split, k, seed)
}

// LoadOrRunSweep loads a cached sweep from path when present and matching
// opts, otherwise runs the sweep and caches it at path (if non-empty).
func LoadOrRunSweep(ctx context.Context, path string, opts SweepOptions) (*Sweep, error) {
	return core.LoadOrRunSweep(ctx, path, opts)
}

// NewServer returns an HTTP handler hosting all simulated platforms under
// the /v1 MLaaS API. Pass a nil logf for default logging.
func NewServer(logf func(format string, args ...any)) http.Handler {
	return service.NewServer(logf).Handler()
}

// NewClient returns a measurement client for an MLaaS service endpoint.
func NewClient(baseURL string) *Client { return client.New(baseURL) }

// WriteFig3 renders the corpus-characteristics figure to w.
func WriteFig3(w io.Writer, p Profile, seed uint64) { core.WriteFig3(w, p, seed) }
