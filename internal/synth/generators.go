// Package synth generates the labeled-dataset corpus the reproduction runs
// on. The paper used 119 datasets (94 UCI + 16 scikit-learn synthetic + 9
// from applied-ML studies); those raw files are proprietary-or-offline here,
// so per the substitution rule we synthesize a corpus with the same
// *marginals*: the Figure 3(a) domain breakdown, the Figure 3(b)/3(c)
// sample- and feature-count distributions (scaled), mixed numeric and
// categorical features, missing values, class imbalance and varying
// linearity. The two probe datasets of §6 — CIRCLE (make_circles) and
// LINEAR (make_classification) — are generated exactly as in scikit-learn.
package synth

import (
	"fmt"
	"math"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/rng"
)

// Generator identifies a concept family used to synthesize a dataset.
type Generator string

// Generator kinds. Linear concepts are separable by a hyperplane (up to
// label noise); the rest require a non-linear decision boundary.
const (
	GenBlobs     Generator = "blobs"     // two Gaussian clusters (≈linear)
	GenLinear    Generator = "linear"    // random-hyperplane concept (linear)
	GenSparse    Generator = "sparse"    // high-dim, few informative, linear
	GenCircles   Generator = "circles"   // concentric circles (non-linear)
	GenMoons     Generator = "moons"     // interleaved half-moons (non-linear)
	GenXOR       Generator = "xor"       // checkerboard parity (non-linear)
	GenQuadratic Generator = "quadratic" // sign of a quadratic form (non-linear)
	GenClusters  Generator = "clusters"  // multi-cluster per class (non-linear)
)

// Spec fully describes one synthetic dataset. Generation is deterministic
// given the Spec and a seed.
type Spec struct {
	Name   string
	Domain dataset.Domain
	Gen    Generator

	N int // nominal sample count (paper scale, before profile capping)
	D int // nominal informative feature count

	// Difficulty and realism knobs.
	Noise       float64 // generator-specific geometric noise
	LabelNoise  float64 // fraction of labels flipped
	Imbalance   float64 // target positive-class fraction (0.5 = balanced)
	NoiseFeats  int     // extra pure-noise features appended
	RedundFeats int     // extra features that are linear combos of real ones
	CategFrac   float64 // fraction of final features cast to categorical
	MissingRate float64 // fraction of cells blanked before imputation
}

// Linear reports whether the underlying concept is linearly separable.
func (s Spec) Linear() bool {
	switch s.Gen {
	case GenBlobs, GenLinear, GenSparse:
		return true
	default:
		return false
	}
}

// TotalD returns the total feature count including noise and redundant
// features.
func (s Spec) TotalD() int { return s.D + s.NoiseFeats + s.RedundFeats }

// Profile caps generation cost so the full suite reruns quickly. The paper
// corpus spans 15–245,057 samples and 1–4,702 features; Quick preserves the
// *shape* of those distributions at laptop scale, Full pushes closer to
// paper scale.
type Profile struct {
	Name string
	MaxN int
	MaxD int
}

// Profiles available to the harness.
var (
	Quick = Profile{Name: "quick", MaxN: 260, MaxD: 24}
	Full  = Profile{Name: "full", MaxN: 4000, MaxD: 320}
)

// ProfileByName resolves "quick" or "full".
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "", "quick":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return Profile{}, fmt.Errorf("synth: unknown profile %q", name)
	}
}

// Generate materializes the dataset described by spec under the given
// profile. The same (spec, profile, seed) always yields the same dataset.
func Generate(spec Spec, p Profile, seed uint64) *dataset.Dataset {
	r := rng.New(seed).Split("gen/" + spec.Name)
	n := spec.N
	if n > p.MaxN {
		n = p.MaxN
	}
	if n < 15 {
		n = 15
	}
	d := spec.D
	maxInformative := p.MaxD
	if d > maxInformative {
		d = maxInformative
	}
	if d < 1 {
		d = 1
	}
	noiseFeats, redundFeats := spec.NoiseFeats, spec.RedundFeats
	// Scale the auxiliary features down proportionally if the informative
	// ones were capped.
	if spec.D > 0 && d < spec.D {
		ratio := float64(d) / float64(spec.D)
		noiseFeats = int(float64(noiseFeats) * ratio)
		redundFeats = int(float64(redundFeats) * ratio)
	}
	if d+noiseFeats+redundFeats > p.MaxD {
		over := d + noiseFeats + redundFeats - p.MaxD
		take := min(over, noiseFeats)
		noiseFeats -= take
		over -= take
		redundFeats -= min(over, redundFeats)
	}

	x, y := generateCore(spec, n, d, r)

	// Rebalance classes to the target imbalance by relabeling geometry-
	// preserving flips is wrong; instead we resample: drop surplus
	// minority/majority points and regenerate until the ratio holds.
	x, y = rebalance(x, y, spec.Imbalance, r)

	// Append redundant features (random linear combinations of real ones).
	if redundFeats > 0 {
		coefs := make([][]float64, redundFeats)
		for k := range coefs {
			c := make([]float64, d)
			for j := range c {
				c[j] = r.NormFloat64()
			}
			coefs[k] = c
		}
		for i := range x {
			for k := 0; k < redundFeats; k++ {
				v := 0.0
				for j := 0; j < d; j++ {
					v += coefs[k][j] * x[i][j]
				}
				x[i] = append(x[i], v+0.05*r.NormFloat64())
			}
		}
	}
	// Append pure-noise features.
	for i := range x {
		for k := 0; k < noiseFeats; k++ {
			x[i] = append(x[i], r.NormFloat64())
		}
	}

	totalD := d + redundFeats + noiseFeats

	// Flip labels.
	if spec.LabelNoise > 0 {
		for i := range y {
			if r.Bernoulli(spec.LabelNoise) {
				y[i] = 1 - y[i]
			}
		}
	}

	ds := &dataset.Dataset{
		Name:   spec.Name,
		Domain: spec.Domain,
		X:      x,
		Y:      y,
		Linear: spec.Linear(),
	}

	// Cast a fraction of features to categorical by quantile binning into a
	// small alphabet; mark their kinds so EncodeCategorical applies.
	if spec.CategFrac > 0 && totalD > 0 {
		nCat := int(math.Round(spec.CategFrac * float64(totalD)))
		if nCat > 0 {
			ds.Kinds = make([]dataset.FeatureKind, totalD)
			catCols := r.Sample(totalD, nCat)
			for _, j := range catCols {
				ds.Kinds[j] = dataset.Categorical
				binColumn(ds.X, j, 3+r.Intn(5))
			}
		}
	}

	// Blank out cells.
	if spec.MissingRate > 0 {
		for i := range ds.X {
			for j := range ds.X[i] {
				if r.Bernoulli(spec.MissingRate) {
					ds.X[i][j] = dataset.Missing
				}
			}
		}
	}
	return ds
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// generateCore draws n samples of the base concept with d informative
// features. It returns roughly balanced classes; rebalancing happens later.
func generateCore(spec Spec, n, d int, r *rng.RNG) ([][]float64, []int) {
	switch spec.Gen {
	case GenCircles:
		return genCircles(n, d, spec.Noise, r)
	case GenMoons:
		return genMoons(n, d, spec.Noise, r)
	case GenXOR:
		return genXOR(n, d, spec.Noise, r)
	case GenQuadratic:
		return genQuadratic(n, d, spec.Noise, r)
	case GenClusters:
		return genClusters(n, d, spec.Noise, r)
	case GenLinear:
		return genLinear(n, d, spec.Noise, r)
	case GenSparse:
		return genSparse(n, d, spec.Noise, r)
	case GenBlobs:
		return genBlobs(n, d, spec.Noise, r)
	default:
		panic(fmt.Sprintf("synth: unknown generator %q", spec.Gen))
	}
}

// genCircles reproduces sklearn.datasets.make_circles: an outer circle
// (class 0) and an inner circle at factor 0.5 (class 1) with Gaussian noise.
// Extra dimensions beyond 2 are small-noise padding so the concept stays
// two-dimensional.
func genCircles(n, d int, noise float64, r *rng.RNG) ([][]float64, []int) {
	if noise <= 0 {
		noise = 0.1
	}
	const factor = 0.5
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * r.Float64()
		radius := 1.0
		cls := 0
		if i%2 == 1 {
			radius = factor
			cls = 1
		}
		row := make([]float64, maxInt(d, 2))
		row[0] = radius*math.Cos(theta) + r.Normal(0, noise)
		row[1] = radius*math.Sin(theta) + r.Normal(0, noise)
		for j := 2; j < len(row); j++ {
			row[j] = r.Normal(0, 0.05)
		}
		x[i] = row[:maxInt(d, 2)]
		y[i] = cls
	}
	return x, y
}

// genMoons reproduces sklearn.datasets.make_moons.
func genMoons(n, d int, noise float64, r *rng.RNG) ([][]float64, []int) {
	if noise <= 0 {
		noise = 0.15
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		t := math.Pi * r.Float64()
		row := make([]float64, maxInt(d, 2))
		if i%2 == 0 {
			row[0] = math.Cos(t)
			row[1] = math.Sin(t)
			y[i] = 0
		} else {
			row[0] = 1 - math.Cos(t)
			row[1] = 0.5 - math.Sin(t)
			y[i] = 1
		}
		row[0] += r.Normal(0, noise)
		row[1] += r.Normal(0, noise)
		for j := 2; j < len(row); j++ {
			row[j] = r.Normal(0, 0.05)
		}
		x[i] = row
	}
	return x, y
}

// genXOR draws points uniformly in [-1,1]^d and labels them by the parity of
// the quadrant sign of the first two coordinates — the classic non-linear
// checkerboard concept.
func genXOR(n, d int, noise float64, r *rng.RNG) ([][]float64, []int) {
	if noise <= 0 {
		noise = 0.05
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, maxInt(d, 2))
		for j := range row {
			row[j] = r.Uniform(-1, 1)
		}
		cls := 0
		if (row[0] > 0) != (row[1] > 0) {
			cls = 1
		}
		row[0] += r.Normal(0, noise)
		row[1] += r.Normal(0, noise)
		x[i] = row
		y[i] = cls
	}
	return x, y
}

// genQuadratic labels by the sign of a random indefinite quadratic form,
// producing curved boundaries in all informative dimensions.
func genQuadratic(n, d int, noise float64, r *rng.RNG) ([][]float64, []int) {
	if noise <= 0 {
		noise = 0.1
	}
	dd := maxInt(d, 2)
	diag := make([]float64, dd)
	threshold := 0.0 // E[q] for standard-normal inputs is Σ diag[j]
	for j := range diag {
		diag[j] = r.Normal(0, 1)
		threshold += diag[j]
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, dd)
		q := 0.0
		for j := range row {
			row[j] = r.NormFloat64()
			q += diag[j] * row[j] * row[j]
		}
		cls := 0
		if q-threshold+r.Normal(0, noise) > 0 {
			cls = 1
		}
		x[i] = row
		y[i] = cls
	}
	return x, y
}

// genClusters places each class on several Gaussian clusters so no single
// hyperplane separates them.
func genClusters(n, d int, noise float64, r *rng.RNG) ([][]float64, []int) {
	if noise <= 0 {
		noise = 0.4
	}
	dd := maxInt(d, 2)
	const perClass = 3
	centers := make([][][]float64, 2)
	for c := 0; c < 2; c++ {
		centers[c] = make([][]float64, perClass)
		for k := 0; k < perClass; k++ {
			ct := make([]float64, dd)
			for j := range ct {
				ct[j] = r.Uniform(-3, 3)
			}
			centers[c][k] = ct
		}
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		ct := centers[cls][r.Intn(perClass)]
		row := make([]float64, dd)
		for j := range row {
			row[j] = ct[j] + r.Normal(0, noise)
		}
		x[i] = row
		y[i] = cls
	}
	return x, y
}

// genLinear reproduces the spirit of sklearn.datasets.make_classification
// with class_sep control: a random unit hyperplane labels standard-normal
// points, with Gaussian slack producing near-boundary noise.
func genLinear(n, d int, noise float64, r *rng.RNG) ([][]float64, []int) {
	if noise <= 0 {
		noise = 0.3
	}
	dd := maxInt(d, 1)
	w := make([]float64, dd)
	norm := 0.0
	for j := range w {
		w[j] = r.NormFloat64()
		norm += w[j] * w[j]
	}
	norm = math.Sqrt(norm)
	for j := range w {
		w[j] /= norm
	}
	b := r.Normal(0, 0.2)
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, dd)
		dot := b
		for j := range row {
			row[j] = r.NormFloat64()
			dot += w[j] * row[j]
		}
		cls := 0
		if dot+r.Normal(0, noise) > 0 {
			cls = 1
		}
		// Push the point away from the plane for a visible margin.
		shift := 0.5
		if cls == 0 {
			shift = -0.5
		}
		for j := range row {
			row[j] += shift * w[j]
		}
		x[i] = row
		y[i] = cls
	}
	return x, y
}

// genSparse generates a high-dimensional linear concept where only a handful
// of coordinates are informative — the shape of text-like UCI datasets.
func genSparse(n, d int, noise float64, r *rng.RNG) ([][]float64, []int) {
	if noise <= 0 {
		noise = 0.2
	}
	dd := maxInt(d, 4)
	informative := maxInt(dd/8, 2)
	w := make([]float64, dd)
	for _, j := range r.Sample(dd, informative) {
		w[j] = r.Normal(0, 2)
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		row := make([]float64, dd)
		dot := 0.0
		for j := range row {
			// Sparse activations: most entries zero.
			if r.Bernoulli(0.3) {
				row[j] = r.Exponential(1)
			}
			dot += w[j] * row[j]
		}
		cls := 0
		if dot+r.Normal(0, noise) > 0 {
			cls = 1
		}
		x[i] = row
		y[i] = cls
	}
	return x, y
}

// genBlobs draws two Gaussian clusters whose separation is 4·(1-noise)… a
// nearly-linear concept with controllable overlap.
func genBlobs(n, d int, noise float64, r *rng.RNG) ([][]float64, []int) {
	if noise <= 0 {
		noise = 0.3
	}
	dd := maxInt(d, 1)
	sep := 3 * (1 - noise)
	if sep < 0.3 {
		sep = 0.3
	}
	dir := make([]float64, dd)
	norm := 0.0
	for j := range dir {
		dir[j] = r.NormFloat64()
		norm += dir[j] * dir[j]
	}
	norm = math.Sqrt(norm)
	for j := range dir {
		dir[j] = dir[j] / norm * sep / 2
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		sign := 1.0
		if cls == 0 {
			sign = -1
		}
		row := make([]float64, dd)
		for j := range row {
			row[j] = sign*dir[j] + r.NormFloat64()
		}
		x[i] = row
		y[i] = cls
	}
	return x, y
}

// rebalance drops majority-class samples until the positive fraction is
// close to target (only when target deviates from 0.5 and enough samples
// remain). It keeps at least 4 samples of each class that has them, and at
// least 8 in all when given 8: a class with fewer than 4 samples keeps them
// all, and the other class makes up the rest.
func rebalance(x [][]float64, y []int, target float64, r *rng.RNG) ([][]float64, []int) {
	if target <= 0 || target >= 1 || math.Abs(target-0.5) < 0.01 {
		return x, y
	}
	var pos, neg []int
	for i, v := range y {
		if v == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	// Keep all of the minority side (per target) and subsample the other.
	// target = pos / (pos + neg').
	keepPos, keepNeg := len(pos), len(neg)
	wantNeg := int(math.Round(float64(len(pos)) * (1 - target) / target))
	if wantNeg <= len(neg) {
		keepNeg = maxInt(wantNeg, 4)
	} else {
		wantPos := int(math.Round(float64(len(neg)) * target / (1 - target)))
		keepPos = maxInt(minInt(wantPos, len(pos)), 4)
	}
	keepNeg = minInt(keepNeg, len(neg))
	keepPos = minInt(keepPos, len(pos))
	// The floor of 4 per side cannot hold when the minority side has fewer
	// rows; top up from the other side so the dataset keeps 8 rows.
	if short := 8 - keepPos - keepNeg; short > 0 {
		addNeg := minInt(short, len(neg)-keepNeg)
		keepNeg += addNeg
		keepPos = minInt(keepPos+short-addNeg, len(pos))
	}
	r.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	r.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	keep := append(append([]int(nil), pos[:keepPos]...), neg[:keepNeg]...)
	r.Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] })
	nx := make([][]float64, len(keep))
	ny := make([]int, len(keep))
	for k, i := range keep {
		nx[k] = x[i]
		ny[k] = y[i]
	}
	return nx, ny
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// binColumn quantile-bins column j of x into nb categorical codes encoded as
// arbitrary distinct floats (the codes are then ordinal-mapped by
// EncodeCategorical, matching the paper's preprocessing).
func binColumn(x [][]float64, j, nb int) {
	vals := make([]float64, 0, len(x))
	for i := range x {
		vals = append(vals, x[i][j])
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi == lo {
		return
	}
	for i := range x {
		b := int(float64(nb) * (x[i][j] - lo) / (hi - lo))
		if b == nb {
			b--
		}
		// Encode the category as a non-ordinal-looking code so the
		// downstream ordinal mapping is exercised realistically.
		x[i][j] = float64((b*37)%97) + 1000
	}
}
