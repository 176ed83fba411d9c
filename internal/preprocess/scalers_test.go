package preprocess

import (
	"math"
	"testing"
	"testing/quick"

	"mlaasbench/internal/rng"
)

var trainRows = [][]float64{
	{1, -10},
	{2, 0},
	{3, 10},
	{4, 20},
}

func TestNewResolvesAllNames(t *testing.T) {
	for _, name := range append(Names(), "identity", "binning", "gaussian", "") {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s == nil {
			t.Fatalf("New(%q) returned nil", name)
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("expected error for unknown scaler")
	}
}

func TestIdentityPassThrough(t *testing.T) {
	s := &Identity{}
	s.Fit(trainRows)
	out := s.Transform(trainRows)
	for i := range trainRows {
		for j := range trainRows[i] {
			if out[i][j] != trainRows[i][j] {
				t.Fatal("identity modified data")
			}
		}
	}
	// Must copy, not alias.
	out[0][0] = 999
	if trainRows[0][0] == 999 {
		t.Fatal("identity aliases input")
	}
}

func TestStandardScaler(t *testing.T) {
	s := &Standard{}
	s.Fit(trainRows)
	out := s.Transform(trainRows)
	for j := 0; j < 2; j++ {
		mean, variance := 0.0, 0.0
		for i := range out {
			mean += out[i][j]
		}
		mean /= float64(len(out))
		for i := range out {
			d := out[i][j] - mean
			variance += d * d
		}
		variance /= float64(len(out))
		if math.Abs(mean) > 1e-10 {
			t.Fatalf("feature %d mean %v after standardization", j, mean)
		}
		if math.Abs(variance-1) > 1e-10 {
			t.Fatalf("feature %d variance %v after standardization", j, variance)
		}
	}
}

func TestStandardScalerConstantColumn(t *testing.T) {
	s := &Standard{}
	rows := [][]float64{{5, 1}, {5, 2}, {5, 3}}
	s.Fit(rows)
	out := s.Transform(rows)
	for i := range out {
		if math.IsNaN(out[i][0]) || math.IsInf(out[i][0], 0) {
			t.Fatal("constant column produced NaN/Inf")
		}
	}
}

func TestStandardUsesTrainStatsOnly(t *testing.T) {
	s := &Standard{}
	s.Fit(trainRows)
	test := [][]float64{{100, 100}}
	out := s.Transform(test)
	// (100 - 2.5) / std(1..4): definitely not zero-centered — proving test
	// rows don't influence the statistics.
	if out[0][0] < 10 {
		t.Fatalf("test transform %v looks like it leaked test stats", out[0][0])
	}
}

func TestMinMax(t *testing.T) {
	s := &MinMax{}
	s.Fit(trainRows)
	out := s.Transform(trainRows)
	for i := range out {
		for j := range out[i] {
			if out[i][j] < 0 || out[i][j] > 1 {
				t.Fatalf("minmax value %v outside [0,1]", out[i][j])
			}
		}
	}
	if out[0][0] != 0 || out[3][0] != 1 {
		t.Fatalf("extremes not mapped to 0/1: %v %v", out[0][0], out[3][0])
	}
}

func TestMaxAbs(t *testing.T) {
	s := &MaxAbs{}
	s.Fit([][]float64{{-4, 2}, {2, -8}})
	out := s.Transform([][]float64{{-4, 2}, {2, -8}})
	if out[0][0] != -1 || out[1][1] != -1 {
		t.Fatalf("maxabs extremes %v %v", out[0][0], out[1][1])
	}
	if out[1][0] != 0.5 || out[0][1] != 0.25 {
		t.Fatalf("maxabs scaling wrong: %v", out)
	}
}

func TestRowNormL2(t *testing.T) {
	s := &RowNorm{P: 2}
	out := s.Transform([][]float64{{3, 4}, {0, 0}})
	if math.Abs(math.Hypot(out[0][0], out[0][1])-1) > 1e-12 {
		t.Fatalf("row not unit norm: %v", out[0])
	}
	// Zero rows must stay zero, not NaN.
	if out[1][0] != 0 || out[1][1] != 0 {
		t.Fatalf("zero row mangled: %v", out[1])
	}
}

func TestRowNormL1(t *testing.T) {
	s := &RowNorm{P: 1}
	out := s.Transform([][]float64{{2, -2}})
	if math.Abs(out[0][0]-0.5) > 1e-12 || math.Abs(out[0][1]+0.5) > 1e-12 {
		t.Fatalf("l1 normalization wrong: %v", out[0])
	}
}

func TestQuantileBinning(t *testing.T) {
	q := &QuantileBinning{Bins: 4}
	var rows [][]float64
	for i := 0; i < 100; i++ {
		rows = append(rows, []float64{float64(i)})
	}
	q.Fit(rows)
	out := q.Transform(rows)
	// Values must be integer bin indices 0..3 and monotone in the input.
	prev := -1.0
	for i := range out {
		v := out[i][0]
		if v != math.Trunc(v) || v < 0 || v > 3 {
			t.Fatalf("bin index %v", v)
		}
		if v < prev {
			t.Fatal("binning not monotone")
		}
		prev = v
	}
	if out[0][0] == out[99][0] {
		t.Fatal("binning collapsed all values")
	}
}

func TestQuantileBinningMakesLRNonLinearReady(t *testing.T) {
	// A radial feature |x| binned becomes monotone-separable: the key
	// behaviour behind Amazon's CIRCLE boundary (Fig 13). Here we simply
	// check bins spread radius information across distinct values.
	r := rng.New(1)
	var rows [][]float64
	for i := 0; i < 200; i++ {
		rows = append(rows, []float64{r.NormFloat64()})
	}
	q := &QuantileBinning{Bins: 8}
	q.Fit(rows)
	out := q.Transform(rows)
	distinct := map[float64]bool{}
	for _, row := range out {
		distinct[row[0]] = true
	}
	if len(distinct) < 6 {
		t.Fatalf("only %d distinct bins", len(distinct))
	}
}

func TestOneHotBinningShape(t *testing.T) {
	o := &OneHotBinning{Bins: 4}
	r := rng.New(7)
	var rows [][]float64
	for i := 0; i < 50; i++ {
		rows = append(rows, []float64{r.NormFloat64(), r.NormFloat64()})
	}
	o.Fit(rows)
	out := o.Transform(rows)
	if len(out[0]) != 8 {
		t.Fatalf("one-hot width %d, want 2 features × 4 bins = 8", len(out[0]))
	}
	// Each original feature contributes exactly one hot bit.
	for i, row := range out {
		for f := 0; f < 2; f++ {
			sum := 0.0
			for b := 0; b < 4; b++ {
				v := row[f*4+b]
				if v != 0 && v != 1 {
					t.Fatalf("non-indicator value %v", v)
				}
				sum += v
			}
			if sum != 1 {
				t.Fatalf("row %d feature %d has %v hot bits", i, f, sum)
			}
		}
	}
}

func TestOneHotBinningGeneralizes(t *testing.T) {
	// Out-of-range test values must still land in a valid bin.
	o := &OneHotBinning{Bins: 5}
	var rows [][]float64
	for i := 0; i < 20; i++ {
		rows = append(rows, []float64{float64(i)})
	}
	o.Fit(rows)
	out := o.Transform([][]float64{{-1000}, {1000}})
	for _, row := range out {
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		if sum != 1 {
			t.Fatalf("out-of-range value produced %v hot bits", sum)
		}
	}
}

// Property: scalers never produce NaN/Inf from finite input and never change
// the shape.
func TestQuickScalersFinite(t *testing.T) {
	names := append(Names(), "binning")
	f := func(seed uint64, scalerIdx uint8) bool {
		name := names[int(scalerIdx)%len(names)]
		s, err := New(name)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		n, d := 2+r.Intn(30), 1+r.Intn(8)
		rows := make([][]float64, n)
		for i := range rows {
			row := make([]float64, d)
			for j := range row {
				row[j] = r.Normal(0, 100)
			}
			rows[i] = row
		}
		s.Fit(rows)
		out := s.Transform(rows)
		if len(out) != n {
			return false
		}
		for i := range out {
			if len(out[i]) != d {
				return false
			}
			for _, v := range out[i] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCopyRowsFlatBacking: the copy every scaler's Transform starts from is
// two allocations whatever the row count (it was one per row), each row is
// capped at its own length so an append cannot spill into its neighbour,
// and ragged input keeps its shape.
func TestCopyRowsFlatBacking(t *testing.T) {
	x := make([][]float64, 256)
	for i := range x {
		x[i] = make([]float64, 32)
		for j := range x[i] {
			x[i][j] = float64(i*32 + j)
		}
	}
	if n := testing.AllocsPerRun(20, func() { copyRows(x) }); n != 2 {
		t.Errorf("copyRows of 256 rows allocates %v times, want 2", n)
	}
	ragged := [][]float64{{1, 2, 3}, {}, {4}, {5, 6}}
	out := copyRows(ragged)
	for i, row := range out {
		if len(row) != len(ragged[i]) || cap(row) != len(row) {
			t.Fatalf("row %d: len %d cap %d, want %d and %d", i, len(row), cap(row), len(ragged[i]), len(ragged[i]))
		}
	}
	out[0] = append(out[0], 99)
	if out[2][0] != 4 || ragged[0][0] != 1 {
		t.Fatal("append to one copied row reached another row or the input")
	}
}
