package synth

import (
	"math"
	"testing"
	"testing/quick"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/rng"
)

func TestCorpusSize(t *testing.T) {
	specs := Corpus()
	if len(specs) != 119 {
		t.Fatalf("corpus has %d datasets, want 119", len(specs))
	}
}

func TestCorpusDomainBreakdown(t *testing.T) {
	counts := map[dataset.Domain]int{}
	for _, s := range Corpus() {
		counts[s.Domain]++
	}
	want := map[dataset.Domain]int{
		dataset.DomainLifeScience: 44,
		dataset.DomainComputer:    18,
		dataset.DomainSynthetic:   17,
		dataset.DomainSocial:      10,
		dataset.DomainPhysical:    10,
		dataset.DomainFinancial:   7,
		dataset.DomainOther:       13,
	}
	for dom, n := range want {
		if counts[dom] != n {
			t.Errorf("domain %s: %d datasets, want %d (Figure 3a)", dom, counts[dom], n)
		}
	}
}

func TestCorpusDeterministic(t *testing.T) {
	a := Corpus()
	b := Corpus()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corpus spec %d differs between calls", i)
		}
	}
}

func TestCorpusNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Corpus() {
		if seen[s.Name] {
			t.Fatalf("duplicate dataset name %q", s.Name)
		}
		seen[s.Name] = true
	}
	if !seen["CIRCLE"] || !seen["LINEAR"] {
		t.Fatal("corpus must include the CIRCLE and LINEAR probes")
	}
}

func TestCorpusSizeRange(t *testing.T) {
	minN, maxN := math.MaxInt, 0
	minD, maxD := math.MaxInt, 0
	for _, s := range Corpus() {
		if s.N < minN {
			minN = s.N
		}
		if s.N > maxN {
			maxN = s.N
		}
		if s.D < minD {
			minD = s.D
		}
		if s.TotalD() > maxD {
			maxD = s.TotalD()
		}
	}
	if minN < 15 {
		t.Fatalf("min nominal samples %d < 15", minN)
	}
	if maxN < 10000 {
		t.Fatalf("max nominal samples %d — corpus should span into the 10k+ range (Fig 3b)", maxN)
	}
	if minD < 1 || maxD < 100 {
		t.Fatalf("feature range [%d, %d] too narrow (Fig 3c)", minD, maxD)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := CircleSpec()
	a := Generate(spec, Quick, 1)
	b := Generate(spec, Quick, 1)
	if a.N() != b.N() {
		t.Fatal("sizes differ")
	}
	for i := range a.X {
		for j := range a.X[i] {
			av, bv := a.X[i][j], b.X[i][j]
			if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
				t.Fatalf("sample %d feature %d differs", i, j)
			}
		}
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels differ")
		}
	}
}

func TestGenerateRespectsProfileCaps(t *testing.T) {
	spec := Spec{Name: "big", Domain: dataset.DomainOther, Gen: GenBlobs, N: 100000, D: 1000}
	ds := Generate(spec, Quick, 1)
	if ds.N() > Quick.MaxN {
		t.Fatalf("n = %d exceeds cap %d", ds.N(), Quick.MaxN)
	}
	if ds.D() > Quick.MaxD {
		t.Fatalf("d = %d exceeds cap %d", ds.D(), Quick.MaxD)
	}
}

func TestGenerateAuxiliaryFeaturesCapped(t *testing.T) {
	spec := Spec{Name: "aux", Gen: GenBlobs, N: 100, D: 20, NoiseFeats: 50, RedundFeats: 50}
	ds := Generate(spec, Quick, 1)
	if ds.D() > Quick.MaxD {
		t.Fatalf("total d = %d exceeds cap %d", ds.D(), Quick.MaxD)
	}
}

func TestCircleProbeGeometry(t *testing.T) {
	ds := Generate(CircleSpec(), Quick, CorpusSeed)
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	if !hasBothClasses(ds) {
		t.Fatal("CIRCLE missing a class")
	}
	if ds.Linear {
		t.Fatal("CIRCLE must be marked non-linear")
	}
	// Inner circle (class 1) should have systematically smaller radius.
	var rIn, rOut float64
	var nIn, nOut int
	for i, row := range ds.X {
		radius := math.Hypot(row[0], row[1])
		if ds.Y[i] == 1 {
			rIn += radius
			nIn++
		} else {
			rOut += radius
			nOut++
		}
	}
	if rIn/float64(nIn) >= rOut/float64(nOut) {
		t.Fatalf("inner mean radius %v >= outer %v", rIn/float64(nIn), rOut/float64(nOut))
	}
}

func TestLinearProbeIsSeparableDirection(t *testing.T) {
	ds := Generate(LinearSpec(), Quick, CorpusSeed)
	if !ds.Linear {
		t.Fatal("LINEAR must be marked linear")
	}
	// Class means must be separated (margin shift of ±0.5 along w).
	var m0, m1 [2]float64
	var n0, n1 float64
	for i, row := range ds.X {
		if ds.Y[i] == 0 {
			m0[0] += row[0]
			m0[1] += row[1]
			n0++
		} else {
			m1[0] += row[0]
			m1[1] += row[1]
			n1++
		}
	}
	dx := m0[0]/n0 - m1[0]/n1
	dy := m0[1]/n0 - m1[1]/n1
	if math.Hypot(dx, dy) < 0.5 {
		t.Fatalf("class mean separation %v too small", math.Hypot(dx, dy))
	}
}

func TestGeneratorsProduceValidDatasets(t *testing.T) {
	gens := []Generator{GenBlobs, GenLinear, GenSparse, GenCircles, GenMoons, GenXOR, GenQuadratic, GenClusters}
	for _, g := range gens {
		spec := Spec{Name: "t-" + string(g), Gen: g, N: 120, D: 5, Noise: 0.2}
		ds := Generate(spec, Quick, 7)
		if err := ds.Validate(); err != nil {
			t.Fatalf("%s: %v", g, err)
		}
		if !hasBothClasses(ds) {
			t.Fatalf("%s: missing a class", g)
		}
		if ds.N() < 15 {
			t.Fatalf("%s: only %d samples", g, ds.N())
		}
	}
}

func TestImbalanceApplied(t *testing.T) {
	spec := Spec{Name: "imb", Gen: GenBlobs, N: 400, D: 3, Imbalance: 0.2}
	ds := Generate(spec, Full, 3)
	b := ds.ClassBalance()
	if b < 0.1 || b > 0.3 {
		t.Fatalf("balance %v, want ~0.2", b)
	}
}

// A class with fewer than 4 samples cannot fill its floor; the other class
// makes up the shortfall, so a 17-row dataset with 2 samples of one class
// keeps 8 rows (both minority samples and 6 of the other), whichever class
// is short.
func TestRebalanceKeepsEightRows(t *testing.T) {
	for _, c := range []struct {
		pos    int
		target float64
	}{{2, 0.8}, {15, 0.2}} {
		x := make([][]float64, 17)
		y := make([]int, 17)
		for i := range x {
			x[i] = []float64{float64(i)}
			if i < c.pos {
				y[i] = 1
			}
		}
		nx, ny := rebalance(x, y, c.target, rng.New(1))
		pos := 0
		for k, v := range ny {
			pos += v
			if i := int(nx[k][0]); y[i] != v {
				t.Fatalf("%d positives: row %d relabeled", c.pos, i)
			}
		}
		if want := min(c.pos, 17-c.pos); len(ny) != 8 || min(pos, len(ny)-pos) != want {
			t.Fatalf("%d positives, target %v: kept %d rows, %d positive; want 8 rows, minority %d",
				c.pos, c.target, len(ny), pos, want)
		}
	}
}

func TestMissingAndCategoricalApplied(t *testing.T) {
	spec := Spec{Name: "mc", Gen: GenLinear, N: 200, D: 6, CategFrac: 0.5, MissingRate: 0.05}
	ds := Generate(spec, Quick, 4)
	if !ds.HasMissing() {
		t.Fatal("expected missing values")
	}
	nCat := 0
	for _, k := range ds.Kinds {
		if k == dataset.Categorical {
			nCat++
		}
	}
	if nCat == 0 {
		t.Fatal("expected categorical features")
	}
}

func TestGenerateCleanReadyForTraining(t *testing.T) {
	spec := Spec{Name: "clean", Gen: GenLinear, N: 100, D: 4, CategFrac: 0.5, MissingRate: 0.1}
	ds := GenerateClean(spec, Quick, 5)
	if ds.HasMissing() {
		t.Fatal("clean dataset still has missing values")
	}
	for _, k := range ds.Kinds {
		if k == dataset.Categorical {
			t.Fatal("clean dataset still has categorical kinds")
		}
	}
}

func TestCorpusByName(t *testing.T) {
	if _, ok := CorpusByName("CIRCLE"); !ok {
		t.Fatal("CIRCLE not found")
	}
	if _, ok := CorpusByName("nope"); ok {
		t.Fatal("unexpected hit")
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("")
	if err != nil || p.Name != "quick" {
		t.Fatalf("default profile: %v %v", p, err)
	}
	if _, err := ProfileByName("huge"); err == nil {
		t.Fatal("expected error")
	}
	if p, _ := ProfileByName("full"); p.MaxN <= Quick.MaxN {
		t.Fatal("full profile should allow more samples")
	}
}

func TestLinearityGroundTruth(t *testing.T) {
	for _, s := range Corpus() {
		want := s.Gen == GenBlobs || s.Gen == GenLinear || s.Gen == GenSparse
		if s.Linear() != want {
			t.Fatalf("%s: Linear() = %v for generator %s", s.Name, s.Linear(), s.Gen)
		}
	}
}

func hasBothClasses(d *dataset.Dataset) bool {
	b := d.ClassBalance()
	return b > 0 && b < 1
}

// Property: every generated dataset validates, has both classes, and honours
// profile caps regardless of spec parameters.
func TestQuickGenerateAlwaysValid(t *testing.T) {
	gens := []Generator{GenBlobs, GenLinear, GenSparse, GenCircles, GenMoons, GenXOR, GenQuadratic, GenClusters}
	f := func(seed uint64, genIdx, nRaw, dRaw uint8, noise, labelNoise, imb float64) bool {
		spec := Spec{
			Name:       "q",
			Gen:        gens[int(genIdx)%len(gens)],
			N:          15 + int(nRaw),
			D:          1 + int(dRaw)%30,
			Noise:      math.Abs(math.Mod(noise, 1)),
			LabelNoise: math.Abs(math.Mod(labelNoise, 0.3)),
			Imbalance:  0.15 + math.Abs(math.Mod(imb, 0.7)),
		}
		ds := Generate(spec, Quick, seed)
		if err := ds.Validate(); err != nil {
			return false
		}
		return ds.N() >= 8 && ds.N() <= Quick.MaxN && ds.D() <= Quick.MaxD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGenerateCorpusQuick(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = GenerateCorpus(Quick, CorpusSeed)
	}
}
