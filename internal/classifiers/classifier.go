// Package classifiers implements the classifier zoo the paper sweeps over:
// the ten classifiers of the local scikit-learn arm (Table 1) plus the three
// Microsoft-only ones (Averaged Perceptron, Bayes Point Machine, Decision
// Jungle). Every classifier trains on a dense feature matrix with binary
// labels and exposes its tunable parameters through the registry so the
// pipeline can enumerate configurations exactly the way §3.2 does
// (categorical: all options; numeric: default/100, default, 100·default,
// clamped to the valid range).
package classifiers

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mlaasbench/internal/rng"
)

// Classifier is a trainable binary classifier.
type Classifier interface {
	// Name returns the canonical classifier name (e.g. "logreg").
	Name() string
	// Fit trains on the given samples. Implementations must be
	// deterministic given r. Fit reports an error for unusable input
	// (no samples, zero features).
	Fit(x [][]float64, y []int, r *rng.RNG) error
	// Predict returns a 0/1 label for each row. Predict must only be
	// called after a successful Fit.
	Predict(x [][]float64) []int
	// Params returns the parameter assignment the classifier was built
	// with; a name it omits takes its registered default.
	Params() Params
}

// Params carries classifier hyperparameters by name. Missing entries fall
// back to the registered spec's default.
type Params map[string]any

// Clone returns an independent copy of p.
func (p Params) Clone() Params {
	c := make(Params, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// ParamKind distinguishes how a parameter is enumerated.
type ParamKind int

// Parameter kinds.
const (
	Categorical ParamKind = iota
	Numeric
)

// ParamSpec describes one tunable parameter for grid enumeration.
type ParamSpec struct {
	Name    string
	Kind    ParamKind
	Options []any   // Categorical: the exhaustive option list
	Default float64 // Numeric: platform default D
	Min     float64 // Numeric: smallest valid value
	Max     float64 // Numeric: largest valid value
	IsInt   bool    // Numeric: round grid values to integers
}

// GridValues returns the values the sweep explores for this parameter. For
// categorical parameters that is every option; for numeric parameters the
// paper's rule (§3.2): D/100, D and 100·D, clamped to the valid range and
// de-duplicated.
func (ps ParamSpec) GridValues() []any {
	if ps.Kind == Categorical {
		return append([]any(nil), ps.Options...)
	}
	raw := []float64{ps.Default / 100, ps.Default, ps.Default * 100}
	var vals []any
	seen := map[float64]bool{}
	for _, v := range raw {
		if ps.Max > ps.Min {
			if v < ps.Min {
				v = ps.Min
			}
			if v > ps.Max {
				v = ps.Max
			}
		}
		if ps.IsInt {
			v = math.Round(v)
			if v < 1 && ps.Min >= 1 {
				v = 1
			}
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		if ps.IsInt {
			vals = append(vals, int(v))
		} else {
			vals = append(vals, v)
		}
	}
	return vals
}

// DefaultValue returns the platform-default value for the parameter.
func (ps ParamSpec) DefaultValue() any {
	if ps.Kind == Categorical {
		if len(ps.Options) == 0 {
			return nil
		}
		return ps.Options[0]
	}
	if ps.IsInt {
		return int(math.Round(ps.Default))
	}
	return ps.Default
}

// Check validates v against the spec and returns it in the spec's
// canonical type. v is a value as JSON decodes it (a string or a float64)
// or as a grid holds it (an int). A categorical takes one of its Options; a
// numeric takes a number in [Min, Max], returned as an int when IsInt (an
// integral value only) and as a float64 otherwise. A numeric equal to the
// spec's Default passes even outside [Min, Max]: a platform's own default
// may lie below the range its grid is clamped to.
func (ps ParamSpec) Check(v any) (any, error) {
	if ps.Kind == Categorical {
		if !slices.Contains(ps.Options, v) {
			return nil, fmt.Errorf("want one of %v, got %v", ps.Options, v)
		}
		return v, nil
	}
	f, isNum := v.(float64)
	if i, ok := v.(int); ok {
		f, isNum = float64(i), true
	}
	inRange := f == ps.Default || (f >= ps.Min && f <= ps.Max)
	if !isNum || !inRange || (ps.IsInt && f != math.Trunc(f)) {
		want := "a number"
		if ps.IsInt {
			want = "an integer"
		}
		return nil, fmt.Errorf("want %s in [%g, %g], got %v", want, ps.Min, ps.Max, v)
	}
	if ps.IsInt {
		return int(f), nil
	}
	return f, nil
}

// Info describes a registered classifier: its identity, linearity family
// (Table 5) and tunable parameters (local-library surface; platforms expose
// subsets).
type Info struct {
	Name   string
	Label  string // paper abbreviation, e.g. "LR", "BST"
	Linear bool
	Params []ParamSpec
}

// params is a classifier's parameter assignment bound to the specs it was
// registered with. Every classifier embeds it, so Fit and Predict read a
// parameter by name alone: a name missing from the assignment reads as its
// spec's default, and a name with no spec panics.
type params struct {
	vals  Params
	specs []ParamSpec
}

// Params returns the assignment the classifier was built with.
func (p params) Params() Params { return p.vals }

func (p params) spec(name string) *ParamSpec {
	for i := range p.specs {
		if p.specs[i].Name == name {
			return &p.specs[i]
		}
	}
	panic("classifiers: no parameter " + name)
}

// float reads a numeric parameter, accepting float64 or int values.
func (p params) float(name string) float64 {
	def := p.spec(name).Default
	switch t := p.vals[name].(type) {
	case float64:
		return t
	case int:
		return float64(t)
	}
	return def
}

// integer reads an integer parameter, rounding a float value.
func (p params) integer(name string) int { return int(math.Round(p.float(name))) }

// option reads a categorical parameter; its default is the first option.
func (p params) option(name string) string {
	def := p.spec(name).Options[0].(string)
	if v, ok := p.vals[name].(string); ok {
		return v
	}
	return def
}

type entry struct {
	info Info
	make func(params) Classifier
}

var registry = map[string]entry{}

// register installs a classifier constructor; called from each classifier
// file's init.
func register(info Info, make func(params) Classifier) {
	if _, dup := registry[info.Name]; dup {
		panic("classifiers: duplicate registration " + info.Name)
	}
	registry[info.Name] = entry{info: info, make: make}
}

// build constructs the entry's classifier bound to p.
func (e entry) build(p Params) Classifier {
	return e.make(params{vals: p, specs: e.info.Params})
}

// New constructs a classifier by registry name with the given parameters.
func New(name string, p Params) (Classifier, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("classifiers: unknown classifier %q", name)
	}
	if p == nil {
		p = Params{}
	}
	return e.build(p), nil
}

// Lookup returns the registry info for a classifier name.
func Lookup(name string) (Info, error) {
	e, ok := registry[name]
	if !ok {
		return Info{}, fmt.Errorf("classifiers: unknown classifier %q", name)
	}
	return e.info, nil
}

// Names returns all registered classifier names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LinearFamily returns the Table-5 split: names of linear and non-linear
// classifiers among the registered set.
func LinearFamily() (linear, nonLinear []string) {
	for _, name := range Names() {
		if registry[name].info.Linear {
			linear = append(linear, name)
		} else {
			nonLinear = append(nonLinear, name)
		}
	}
	return linear, nonLinear
}

// DefaultParams returns the platform-default parameter assignment for a
// classifier (every spec at its default value).
func DefaultParams(name string) (Params, error) {
	info, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	p := Params{}
	for _, spec := range info.Params {
		p[spec.Name] = spec.DefaultValue()
	}
	return p, nil
}

// validateFit performs the shared input checks for Fit implementations.
func validateFit(x [][]float64, y []int) (n, d int, err error) {
	if len(x) == 0 {
		return 0, 0, fmt.Errorf("classifiers: empty training set")
	}
	if len(x) != len(y) {
		return 0, 0, fmt.Errorf("classifiers: %d samples vs %d labels", len(x), len(y))
	}
	d = len(x[0])
	if d == 0 {
		return 0, 0, fmt.Errorf("classifiers: zero features")
	}
	for i, row := range x {
		if len(row) != d {
			return 0, 0, fmt.Errorf("classifiers: ragged row %d", i)
		}
	}
	for i, v := range y {
		if v != 0 && v != 1 {
			return 0, 0, fmt.Errorf("classifiers: label %d at %d not binary", v, i)
		}
	}
	return len(x), d, nil
}

// majorityLabel returns the most common label (ties → 1).
func majorityLabel(y []int) int {
	pos := 0
	for _, v := range y {
		pos += v
	}
	if 2*pos >= len(y) {
		return 1
	}
	return 0
}

// signedLabels maps {0,1} to {-1,+1} for margin-based learners.
func signedLabels(y []int) []float64 {
	out := make([]float64, len(y))
	for i, v := range y {
		if v == 1 {
			out[i] = 1
		} else {
			out[i] = -1
		}
	}
	return out
}
