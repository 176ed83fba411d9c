// Package pipeline assembles the Figure-1 ML pipeline: data transformation
// and feature selection (FEAT), classifier choice (CLF) and parameter
// tuning (PARA), then training and prediction. A Config names one point in
// that control space; Run executes it end-to-end on a train/test split.
//
// The package also implements the paper's configuration enumeration (§3.2):
// categorical parameters contribute every option, numeric parameters the
// {default/100, default, 100·default} grid, and the FEAT dimension iterates
// the platform's scaler and filter-method lists.
package pipeline

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/metrics"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/telemetry"
)

// Feat identifies one option of the FEAT control dimension: either no
// transformation, a scaler, a filter feature-selection method, or the
// Fisher-LDA projection (Microsoft's first FEAT entry).
type Feat struct {
	Kind string `json:"kind"` // "none", "scaler", "filter", "fisherlda"
	Name string `json:"name"` // scaler or filter method name ("" for none/fisherlda)
}

// String renders the FEAT option compactly, e.g. "scaler:standard".
func (f Feat) String() string {
	switch f.Kind {
	case "", "none":
		return "none"
	case "fisherlda":
		return "fisherlda"
	default:
		return f.Kind + ":" + f.Name
	}
}

// ParseFeat inverts Feat.String.
func ParseFeat(s string) (Feat, error) {
	switch s {
	case "", "none":
		return Feat{Kind: "none"}, nil
	case "fisherlda":
		return Feat{Kind: "fisherlda"}, nil
	}
	kind, name, ok := strings.Cut(s, ":")
	if !ok || (kind != "scaler" && kind != "filter") || name == "" {
		return Feat{}, fmt.Errorf("pipeline: bad FEAT option %q", s)
	}
	return Feat{Kind: kind, Name: name}, nil
}

// FilterKeepFraction is the fraction of features a filter method keeps.
// The paper does not report a per-dataset k; half the features is the
// conventional midpoint and applies uniformly.
const FilterKeepFraction = 0.5

// Config is one fully specified pipeline configuration.
type Config struct {
	Feat       Feat               `json:"feat"`
	Classifier string             `json:"classifier"`
	Params     classifiers.Params `json:"params"`
}

// String renders the config as a stable, human-readable id.
func (c Config) String() string {
	keys := make([]string, 0, len(c.Params))
	for k := range c.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(c.Feat.String())
	b.WriteString("|")
	b.WriteString(c.Classifier)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%v", k, c.Params[k])
	}
	return b.String()
}

// Result is the outcome of running one config on one dataset split.
type Result struct {
	Config Config         `json:"config"`
	Scores metrics.Scores `json:"scores"`
	// Pred holds the test-set predictions, aligned with the split's test
	// rows. The §6.2 family-inference analysis consumes them.
	Pred []int `json:"pred,omitempty"`
}

// Run executes the config on the given split: fit FEAT on the training
// data, transform both sides, train the classifier, predict the test set
// and score. The RNG governs all stochastic training steps. With a non-nil
// cache the FEAT transform is fitted at most once per option, and the
// transformed matrices and the training matrix's presort are shared
// read-only across configs; a nil cache fits per call, with identical
// results.
//
// Stage timings become child spans when ctx carries a span (so a measured
// config renders as one trace tree) and land in ctx's registry, falling
// back to plain Default registry timers otherwise. The computation itself
// is context-free — cancellation is the sweep scheduler's job, between
// configs.
func Run(ctx context.Context, cfg Config, train, test *dataset.Dataset, r *rng.RNG, cache *FeatCache) (Result, error) {
	v, err := cache.view(ctx, cfg.Feat, train, test)
	if err != nil {
		return Result{}, err
	}
	clf, err := classifiers.New(cfg.Classifier, cfg.Params)
	if err != nil {
		return Result{}, err
	}
	stopFit := telemetry.TimeCtx(ctx, "fit")
	err = classifiers.FitWith(clf, v.xTr, train.Y, r.Split("fit/"+cfg.String()), v.pre)
	stopFit()
	if err != nil {
		return Result{}, fmt.Errorf("pipeline: fit %s on %s: %w", cfg.Classifier, train.Name, err)
	}
	stopPredict := telemetry.TimeCtx(ctx, "predict")
	pred := clf.Predict(v.test(ctx, test))
	stopPredict()
	stopScore := telemetry.TimeCtx(ctx, "score")
	scores, err := metrics.Score(test.Y, pred)
	stopScore()
	if err != nil {
		return Result{}, fmt.Errorf("pipeline: score: %w", err)
	}
	return Result{Config: cfg, Scores: scores, Pred: pred}, nil
}

// ClassifierSurface is the exposed tuning surface of one classifier on a
// platform: which of the registry's parameters the platform lets users
// touch (Table 1's per-platform parameter lists).
type ClassifierSurface struct {
	Name   string
	Params []classifiers.ParamSpec
}

// Surface is a platform's full user-visible control surface.
type Surface struct {
	Feats       []Feat // FEAT options; empty means the dimension is absent
	Classifiers []ClassifierSurface
}

// FeatOptions returns the FEAT options to iterate, always including "none".
func (s Surface) FeatOptions() []Feat {
	opts := []Feat{{Kind: "none"}}
	opts = append(opts, s.Feats...)
	return opts
}

// DefaultConfig returns the platform's zero-control baseline: no FEAT, the
// given classifier at the platform defaults for every exposed parameter.
func (s Surface) DefaultConfig(classifier string) (Config, error) {
	return s.Configure(classifier, nil)
}

// Configure returns DefaultConfig(classifier) with the given parameter
// overrides, each checked against the surface's spec (ParamSpec.Check) and
// stored in its canonical type, so a value the classifier would not honour
// is an error and one model has one Config whatever form its parameters
// arrive in.
func (s Surface) Configure(classifier string, overrides map[string]any) (Config, error) {
	cs, err := s.classifier(classifier)
	if err != nil {
		return Config{}, err
	}
	params := classifiers.Params{}
	for _, spec := range cs.Params {
		params[spec.Name] = spec.DefaultValue()
	}
	for k, v := range overrides {
		i := slices.IndexFunc(cs.Params, func(ps classifiers.ParamSpec) bool { return ps.Name == k })
		if i < 0 {
			return Config{}, fmt.Errorf("pipeline: parameter %q not exposed by %s", k, classifier)
		}
		if params[k], err = cs.Params[i].Check(v); err != nil {
			return Config{}, fmt.Errorf("pipeline: parameter %q of %s: %w", k, classifier, err)
		}
	}
	return Config{Feat: Feat{Kind: "none"}, Classifier: classifier, Params: params}, nil
}

func (s Surface) classifier(name string) (ClassifierSurface, error) {
	for _, cs := range s.Classifiers {
		if cs.Name == name {
			return cs, nil
		}
	}
	return ClassifierSurface{}, fmt.Errorf("pipeline: classifier %q not on surface", name)
}

// ParamGrid enumerates the parameter assignments the sweep explores for one
// classifier surface, following the paper's §3.2 methodology: start from the
// platform defaults, then scan each tunable parameter's grid values
// (categorical: all options; numeric: default/100, default, 100·default)
// one at a time around the defaults. The first element is always the
// all-defaults assignment. (The paper's Table-2 counts likewise grow with
// the *sum* of per-parameter options — e.g. Microsoft was measured with
// "over 200 model configurations", not the 3²³ full product.)
func ParamGrid(cs ClassifierSurface) []classifiers.Params {
	defaults := classifiers.Params{}
	for _, spec := range cs.Params {
		defaults[spec.Name] = spec.DefaultValue()
	}
	out := []classifiers.Params{defaults}
	seen := map[string]bool{paramsKey(defaults): true}
	for _, spec := range cs.Params {
		for _, v := range spec.GridValues() {
			p := defaults.Clone()
			p[spec.Name] = v
			key := paramsKey(p)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, p)
		}
	}
	return out
}

// ParamGridFull enumerates the complete cartesian product of the exposed
// parameter grids. It exists for ablations comparing the one-at-a-time scan
// against exhaustive search; the product explodes combinatorially, so the
// standard sweep uses ParamGrid.
func ParamGridFull(cs ClassifierSurface) []classifiers.Params {
	defaults := classifiers.Params{}
	for _, spec := range cs.Params {
		defaults[spec.Name] = spec.DefaultValue()
	}
	grids := make([][]any, len(cs.Params))
	for i, spec := range cs.Params {
		grids[i] = spec.GridValues()
	}
	out := []classifiers.Params{defaults}
	seen := map[string]bool{paramsKey(defaults): true}
	var recurse func(i int, cur classifiers.Params)
	recurse = func(i int, cur classifiers.Params) {
		if i == len(cs.Params) {
			key := paramsKey(cur)
			if !seen[key] {
				seen[key] = true
				out = append(out, cur.Clone())
			}
			return
		}
		for _, v := range grids[i] {
			cur[cs.Params[i].Name] = v
			recurse(i+1, cur)
		}
	}
	recurse(0, classifiers.Params{})
	return out
}

func paramsKey(p classifiers.Params) string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%v;", k, p[k])
	}
	return b.String()
}

// Enumerate lists every configuration on the surface: FEAT options ×
// classifiers × parameter grids. This is the sweep behind the paper's
// "optimized" numbers (§4.1) and Table 2's measurement counts.
func Enumerate(s Surface) []Config {
	var out []Config
	for _, feat := range s.FeatOptions() {
		for _, cs := range s.Classifiers {
			for _, params := range ParamGrid(cs) {
				out = append(out, Config{Feat: feat, Classifier: cs.Name, Params: params})
			}
		}
	}
	return out
}

// EnumerateDimension lists the configs that vary a single control dimension
// ("feat", "clf" or "para") while holding the others at the platform
// baseline — the §4.2/§5.2 per-control experiments. baseClassifier is the
// platform's default classifier (Logistic Regression in the paper).
func EnumerateDimension(s Surface, dim, baseClassifier string) ([]Config, error) {
	base, err := s.DefaultConfig(baseClassifier)
	if err != nil {
		return nil, err
	}
	switch dim {
	case "feat":
		var out []Config
		for _, feat := range s.FeatOptions() {
			c := base
			c.Feat = feat
			out = append(out, c)
		}
		return out, nil
	case "clf":
		var out []Config
		for _, cs := range s.Classifiers {
			c, err := s.DefaultConfig(cs.Name)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
		}
		return out, nil
	case "para":
		cs, err := s.classifier(baseClassifier)
		if err != nil {
			return nil, err
		}
		var out []Config
		for _, params := range ParamGrid(cs) {
			out = append(out, Config{Feat: Feat{Kind: "none"}, Classifier: baseClassifier, Params: params})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("pipeline: unknown dimension %q", dim)
	}
}

// WithDefault overrides one parameter's platform default in a spec list —
// §3.2 notes that default values vary across platforms ("All MLaaS
// platforms select a default set of parameters for Logistic Regression
// (values and parameters vary across platforms)"). For numeric parameters
// the default value changes (and with it the derived {D/100, D, 100·D}
// grid); for categorical parameters the chosen option is moved to the
// front, since the first option is the default.
func WithDefault(specs []classifiers.ParamSpec, name string, def any) []classifiers.ParamSpec {
	out := make([]classifiers.ParamSpec, len(specs))
	copy(out, specs)
	for i := range out {
		if out[i].Name != name {
			continue
		}
		switch v := def.(type) {
		case float64:
			out[i].Default = v
		case int:
			out[i].Default = float64(v)
		case string:
			opts := append([]any(nil), out[i].Options...)
			for j, o := range opts {
				if o == v {
					opts[0], opts[j] = opts[j], opts[0]
				}
			}
			out[i].Options = opts
		default:
			panic(fmt.Sprintf("pipeline: unsupported default type %T for %s", def, name))
		}
		return out
	}
	panic(fmt.Sprintf("pipeline: WithDefault: no parameter %s in spec list", name))
}

// SpecsFor returns the registry ParamSpecs whose names are listed — the
// helper platforms use to expose a subset of a classifier's parameters.
func SpecsFor(classifier string, paramNames ...string) []classifiers.ParamSpec {
	info, err := classifiers.Lookup(classifier)
	if err != nil {
		panic(err) // platform definitions are static; a typo is a programming error
	}
	var out []classifiers.ParamSpec
	for _, want := range paramNames {
		found := false
		for _, spec := range info.Params {
			if spec.Name == want {
				out = append(out, spec)
				found = true
				break
			}
		}
		if !found {
			panic(fmt.Sprintf("pipeline: classifier %s has no parameter %s", classifier, want))
		}
	}
	return out
}
