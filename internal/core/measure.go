package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/metrics"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
)

// Options configures a measurement sweep.
type Options struct {
	// Profile controls dataset sizes (synth.Quick or synth.Full).
	Profile synth.Profile
	// Seed roots all randomness; identical options ⇒ identical sweeps.
	Seed uint64
	// MaxDatasets truncates the corpus (0 = all 119) for smoke runs.
	MaxDatasets int
	// Platforms restricts the sweep (nil = all seven).
	Platforms []string
	// StorePredictions keeps each config's test-set predictions in the
	// measurements — required by the §6.2 classifier-family inference.
	StorePredictions bool
	// Workers bounds the sweep's concurrency (0 = runtime.NumCPU(), 1 =
	// serial). Any worker count produces byte-identical measurements: every
	// configuration's RNG is derived by name from (seed, platform, dataset,
	// config), so results do not depend on execution order, and the engine
	// merges them back into corpus order.
	Workers int
	// Progress, if non-nil, receives one line per (platform, dataset).
	// Calls are serialized, but with Workers > 1 their order follows unit
	// completion, not corpus order.
	Progress func(string)
	// Tracker, if non-nil, is Begin()-ed with the unit count and advanced
	// as units complete — the source of the live progress line and the
	// /progress JSON snapshot.
	Tracker *ProgressTracker
}

// DefaultOptions returns the standard quick-profile sweep configuration.
func DefaultOptions() Options {
	return Options{Profile: synth.Quick, Seed: synth.CorpusSeed, StorePredictions: true}
}

// Measurement is one observed (platform, dataset, config) outcome —
// the unit every analysis consumes.
type Measurement struct {
	Platform string          `json:"platform"`
	Dataset  string          `json:"dataset"`
	Config   pipeline.Config `json:"config"`
	Scores   metrics.Scores  `json:"scores"`
	// Baseline marks the platform's zero-control configuration (§3.2).
	Baseline bool `json:"baseline,omitempty"`
	// Pred holds the test-set predictions when StorePredictions is set
	// (serialized as base64 in JSON).
	Pred []uint8 `json:"pred,omitempty"`
	// Micros is the wall-clock cost of the train+predict call. The paper
	// leaves training time to future work (§8); we record it as an
	// extension dimension.
	Micros int64 `json:"micros,omitempty"`
}

// DatasetInfo is the per-dataset context the analyses need.
type DatasetInfo struct {
	Name   string         `json:"name"`
	Domain dataset.Domain `json:"domain"`
	N      int            `json:"n"`
	D      int            `json:"d"`
	Linear bool           `json:"linear"` // generator ground truth
	TestY  []int          `json:"test_y"`
	// Split holds the in-memory train/test partition; it is regenerable
	// from (name, seed, profile) and therefore not persisted.
	Split dataset.Split `json:"-"`
}

// Sweep holds a completed measurement campaign.
type Sweep struct {
	Opts     Options
	Datasets []DatasetInfo
	// ByPlatform[platform][dataset] lists every measurement taken.
	ByPlatform map[string]map[string][]Measurement

	// dsIndex maps dataset name → Datasets index, built lazily on the first
	// Dataset call (analyses call it in loops; the linear scan was O(n) per
	// lookup). Lazy construction keeps literal-constructed sweeps working.
	dsIndexOnce sync.Once
	dsIndex     map[string]int
}

// RunSweep generates the corpus, splits each dataset 70/30 (§3.1) and
// measures every configuration of every requested platform on every
// dataset. Work fans out over a bounded pool of opts.Workers goroutines:
// (platform, dataset) units run concurrently, and within a unit the config
// list is measured in batches. Results merge back into corpus order, and
// because each configuration's RNG is derived by name rather than by
// position, a parallel sweep is byte-identical to a serial one (modulo the
// wall-clock Micros field). The context cancels the sweep between
// configurations.
func RunSweep(ctx context.Context, opts Options) (*Sweep, error) {
	return runSweep(ctx, opts, runUnit)
}

// unitRunner measures every config of one plan on one split — one
// (platform, dataset) unit. The returned slice aligns with plan.configs; a
// nil return means the unit failed or was cancelled, with the error on the
// pool. cache is the split's FEAT cache, shared by every platform measuring
// it.
type unitRunner func(pl *pool, plan unitPlan, sp dataset.Split, dsName string, opts Options, cache *pipeline.FeatCache) []Measurement

// withDefaults fills the options every sweep and cache resolve the same
// way: the quick profile and the corpus seed.
func withDefaults(opts Options) Options {
	if opts.Profile.Name == "" {
		opts.Profile = synth.Quick
	}
	if opts.Seed == 0 {
		opts.Seed = synth.CorpusSeed
	}
	return opts
}

// runSweep is the one sweep engine: it plans the platforms, generates and
// splits each dataset inside the pool, hands every (platform, dataset) unit
// to run, and merges the results back into corpus order. Where a unit's
// measurements are taken is run's business alone.
func runSweep(ctx context.Context, opts Options, run unitRunner) (*Sweep, error) {
	opts = withDefaults(opts)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	names := opts.Platforms
	if len(names) == 0 {
		names = platforms.Names()
	}
	plats := make([]platforms.Platform, 0, len(names))
	plans := make([]unitPlan, 0, len(names))
	for _, n := range names {
		p, err := platforms.New(n)
		if err != nil {
			return nil, err
		}
		// The config list depends only on the platform surface, so it is
		// enumerated once here rather than once per dataset.
		plan, err := planUnit(p)
		if err != nil {
			return nil, err
		}
		plats = append(plats, p)
		plans = append(plans, plan)
	}

	specs := synth.Corpus()
	if opts.MaxDatasets > 0 && opts.MaxDatasets < len(specs) {
		specs = specs[:opts.MaxDatasets]
	}

	sw := &Sweep{
		Opts:       opts,
		ByPlatform: make(map[string]map[string][]Measurement, len(plats)),
	}
	for _, p := range plats {
		sw.ByPlatform[p.Name()] = make(map[string][]Measurement, len(specs))
	}

	// The sweep itself is a plain stage timer, not a span: a span here
	// would become the root of one giant trace retaining every measurement
	// underneath it. Instead each measured config is its own root trace
	// (see measureOne) and the flight recorder samples among them.
	reg := telemetry.RegistryFrom(ctx)
	defer reg.Time("sweep")()
	if opts.Tracker != nil {
		opts.Tracker.Begin(len(specs) * len(plans))
	}
	splitRNG := rng.New(opts.Seed).Split("splits")

	// dsOut collects one dataset's results, indexed like specs/plans so the
	// final merge reads them back in deterministic corpus order.
	type dsOut struct {
		info  DatasetInfo
		units [][]Measurement // units[pi] aligns with plans[pi].configs
	}
	outs := make([]dsOut, len(specs))

	pl := newPool(ctx, workers)
	var progressMu sync.Mutex
	progress := func(line string) {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		opts.Progress(line)
	}

	var dsWG sync.WaitGroup
	for di := range specs {
		dsWG.Add(1)
		go func(di int) {
			defer dsWG.Done()
			// Generate + split inside a slot: it is CPU-bound work.
			if !pl.acquire() {
				return
			}
			_, genSpan := telemetry.StartSpan(pl.ctx, "corpus_gen")
			genSpan.SetAttr("dataset", specs[di].Name)
			ds := synth.GenerateClean(specs[di], opts.Profile, opts.Seed)
			sp := ds.StratifiedSplit(0.7, splitRNG.Split(ds.Name))
			genSpan.End()
			pl.release()
			outs[di].info = DatasetInfo{
				Name:   ds.Name,
				Domain: ds.Domain,
				N:      ds.N(),
				D:      ds.D(),
				Linear: ds.Linear,
				TestY:  sp.Test.Y,
				Split:  sp,
			}
			outs[di].units = make([][]Measurement, len(plans))
			// One FEAT cache per split, shared across all platforms
			// measuring it: a FEAT option's transform depends only on the
			// option and the split, never on the platform.
			cache := pipeline.NewFeatCache()
			var unitWG sync.WaitGroup
			for pi := range plans {
				unitWG.Add(1)
				go func(pi int) {
					defer unitWG.Done()
					ms := run(pl, plans[pi], sp, ds.Name, opts, cache)
					if ms == nil {
						return // failed or cancelled mid-unit; the pool holds the error
					}
					outs[di].units[pi] = ms
					reg.Counter("mlaas_sweep_measurements_total", "platform", plans[pi].platform.Name()).Add(int64(len(ms)))
					if opts.Tracker != nil {
						opts.Tracker.Add(1)
					}
					progress(fmt.Sprintf("%-14s %-24s %d configs", plans[pi].platform.Name(), ds.Name, len(ms)))
				}(pi)
			}
			unitWG.Wait()
		}(di)
	}
	dsWG.Wait()
	if err := pl.done(); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("core: sweep cancelled: %w", err)
		}
		return nil, err
	}

	for di := range outs {
		sw.Datasets = append(sw.Datasets, outs[di].info)
		for pi, p := range plats {
			sw.ByPlatform[p.Name()][outs[di].info.Name] = outs[di].units[pi]
		}
	}
	return sw, nil
}

// unitPlan is the per-platform half of a (platform, dataset) measurement
// unit: the platform plus its enumerated config list, computed once per
// sweep. Black boxes take a single automatic measurement, expressed as one
// zero config.
type unitPlan struct {
	platform platforms.Platform
	blackBox bool
	configs  []pipeline.Config
	baseKey  string // Config.String() of the zero-control baseline
}

func planUnit(p platforms.Platform) (unitPlan, error) {
	if p.BaselineClassifier() == "" {
		return unitPlan{platform: p, blackBox: true, configs: []pipeline.Config{{}}}, nil
	}
	baseCfg, err := p.Surface().DefaultConfig(p.BaselineClassifier())
	if err != nil {
		return unitPlan{}, err
	}
	return unitPlan{
		platform: p,
		configs:  pipeline.Enumerate(p.Surface()),
		baseKey:  baseCfg.String(),
	}, nil
}

// runUnit is the in-process unitRunner: it measures a unit's configs here,
// fanning config batches across the pool. Failures are recorded on the pool
// with platform/dataset context attached.
func runUnit(pl *pool, plan unitPlan, sp dataset.Split, dsName string, opts Options, cache *pipeline.FeatCache) []Measurement {
	out := make([]Measurement, len(plan.configs))
	// Batch size targets ~4 batches per worker per unit for load balance
	// without drowning the pool in tiny tasks.
	chunk := (len(plan.configs) + 4*cap(pl.slots) - 1) / (4 * cap(pl.slots))
	if chunk < 1 {
		chunk = 1
	}
	var batchWG sync.WaitGroup
	for lo := 0; lo < len(plan.configs); lo += chunk {
		hi := lo + chunk
		if hi > len(plan.configs) {
			hi = len(plan.configs)
		}
		batchWG.Add(1)
		go func(lo, hi int) {
			defer batchWG.Done()
			if !pl.acquire() {
				return
			}
			defer pl.release()
			for i := lo; i < hi; i++ {
				if pl.ctx.Err() != nil {
					return
				}
				m, err := measureOne(pl.ctx, plan, plan.configs[i], sp, dsName, opts, cache)
				if err != nil {
					pl.fail(fmt.Errorf("core: %s on %s: %w", plan.platform.Name(), dsName, err))
					return
				}
				out[i] = m
			}
		}(lo, hi)
	}
	batchWG.Wait()
	if pl.ctx.Err() != nil {
		return nil
	}
	return out
}

// measureOne runs a single configuration of a plan on one split as its own
// root trace ("measure" span with platform/dataset/config attrs, pipeline
// stages as children). Black boxes ignore the cache (their hidden probe
// fits on internal re-splits the cache cannot represent).
func measureOne(ctx context.Context, plan unitPlan, cfg pipeline.Config, sp dataset.Split, dsName string, opts Options, cache *pipeline.FeatCache) (Measurement, error) {
	p := plan.platform
	mctx, span := telemetry.StartSpan(ctx, "measure")
	span.SetAttr("platform", p.Name()).SetAttr("dataset", dsName)
	if !plan.blackBox {
		span.SetAttr("config", cfg.String())
	}
	start := time.Now()
	res, err := p.RunCtx(mctx, cfg, sp.Train, sp.Test, opts.Seed, cache)
	if err != nil {
		span.SetError(err)
		span.End()
		return Measurement{}, err
	}
	span.End()
	return plan.measurement(cfg, dsName, res.Scores, res.Pred, start, opts), nil
}

// measurement packs one config's outcome the same way wherever it was
// measured. White boxes echo the swept config; black boxes report only
// their automatic mode, the way the services do, so §6.2 has to infer the
// family from Pred. Micros is the wall-clock time since start.
func (plan unitPlan) measurement(cfg pipeline.Config, dsName string, scores metrics.Scores, pred []int, start time.Time, opts Options) Measurement {
	m := Measurement{
		Platform: plan.platform.Name(),
		Dataset:  dsName,
		Config:   cfg,
		Scores:   scores,
		Baseline: plan.blackBox || cfg.String() == plan.baseKey,
		Micros:   time.Since(start).Microseconds(),
	}
	if plan.blackBox {
		m.Config = pipeline.Config{Classifier: "auto", Params: classifiers.Params{}}
	}
	if opts.StorePredictions {
		m.Pred = packPred(pred)
	}
	return m
}

// measurePlatform runs every configuration of one platform on one split,
// serially. Analyses that re-measure outside a sweep use it directly.
func measurePlatform(p platforms.Platform, sp dataset.Split, dsName string, opts Options) ([]Measurement, error) {
	plan, err := planUnit(p)
	if err != nil {
		return nil, err
	}
	cache := pipeline.NewFeatCache()
	out := make([]Measurement, len(plan.configs))
	for i, cfg := range plan.configs {
		m, err := measureOne(context.Background(), plan, cfg, sp, dsName, opts, cache)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func packPred(pred []int) []uint8 {
	out := make([]uint8, len(pred))
	for i, v := range pred {
		out[i] = uint8(v)
	}
	return out
}

// Platforms returns the platform names present in the sweep, in complexity
// order.
func (s *Sweep) Platforms() []string {
	var out []string
	for _, name := range platforms.Names() {
		if _, ok := s.ByPlatform[name]; ok {
			out = append(out, name)
		}
	}
	return out
}

// DatasetNames returns the measured dataset names in corpus order.
func (s *Sweep) DatasetNames() []string {
	out := make([]string, len(s.Datasets))
	for i, d := range s.Datasets {
		out[i] = d.Name
	}
	return out
}

// Dataset returns the DatasetInfo by name. The first call indexes the
// dataset list; Datasets must not be appended to afterwards.
func (s *Sweep) Dataset(name string) (DatasetInfo, bool) {
	s.dsIndexOnce.Do(func() {
		s.dsIndex = make(map[string]int, len(s.Datasets))
		for i, d := range s.Datasets {
			s.dsIndex[d.Name] = i
		}
	})
	i, ok := s.dsIndex[name]
	if !ok {
		return DatasetInfo{}, false
	}
	return s.Datasets[i], true
}

// Baseline returns the baseline measurement of a platform on a dataset.
func (s *Sweep) Baseline(platform, ds string) (Measurement, bool) {
	for _, m := range s.ByPlatform[platform][ds] {
		if m.Baseline {
			return m, true
		}
	}
	return Measurement{}, false
}

// Best returns the measurement with the highest value of the named metric
// for a platform on a dataset (the per-dataset "optimized" outcome, §4.1).
func (s *Sweep) Best(platform, ds, metric string) (Measurement, bool) {
	best := Measurement{}
	found := false
	bestVal := -1.0
	for _, m := range s.ByPlatform[platform][ds] {
		v, err := m.Scores.Get(metric)
		if err != nil {
			return Measurement{}, false
		}
		if v > bestVal {
			bestVal = v
			best = m
			found = true
		}
	}
	return best, found
}

// ConfigCount returns the number of measured configurations per dataset for
// a platform (Table 2's scale column, per dataset).
func (s *Sweep) ConfigCount(platform string) int {
	for _, ms := range s.ByPlatform[platform] {
		return len(ms)
	}
	return 0
}

// classifierBests returns, for one platform and dataset, each classifier's
// best F-score over the given measurement filter.
func (s *Sweep) classifierBests(platform, ds string, filter func(Measurement) bool) map[string]float64 {
	bests := map[string]float64{}
	for _, m := range s.ByPlatform[platform][ds] {
		if filter != nil && !filter(m) {
			continue
		}
		name := m.Config.Classifier
		if v, ok := bests[name]; !ok || m.Scores.F1 > v {
			bests[name] = m.Scores.F1
		}
	}
	return bests
}

// sortedKeys returns map keys in sorted order (deterministic iteration).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// classifierLabel renders a classifier's paper abbreviation (LR, BST, ...).
func classifierLabel(name string) string {
	if name == "auto" {
		return "AUTO"
	}
	info, err := classifiers.Lookup(name)
	if err != nil {
		return name
	}
	return info.Label
}
