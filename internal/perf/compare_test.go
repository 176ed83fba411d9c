package perf

import (
	"strings"
	"testing"
	"time"
)

func mkResult(name, unit string, runs ...float64) Result {
	r := Result{Name: name, Unit: unit, Runs: runs, HigherIsBetter: HigherBetterUnit(unit)}
	r.Finalize()
	return r
}

func mkRecord(label string, results ...Result) *Record {
	return &Record{
		Schema: SchemaVersion, Kind: KindBench, Label: label,
		Time: time.Unix(0, 0), Results: results,
	}
}

// TestCompareDetectsSyntheticRegression is the doctored-history self-test:
// an injected 50% slowdown must flag a regression, while the unchanged
// series stays quiet.
func TestCompareDetectsSyntheticRegression(t *testing.T) {
	old := mkRecord("old",
		mkResult("BenchmarkGEMM", "ns/op", 1000, 1010, 990),
		mkResult("BenchmarkStable", "ns/op", 500, 505, 495),
	)
	doctored := mkRecord("new",
		mkResult("BenchmarkGEMM", "ns/op", 1500, 1510, 1490), // +50%
		mkResult("BenchmarkStable", "ns/op", 501, 499, 500),
	)
	cmp, err := Compare(old, doctored, DefaultCompareOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressions != 1 {
		t.Fatalf("regressions = %d, want 1: %+v", cmp.Regressions, cmp.Deltas)
	}
	for _, d := range cmp.Deltas {
		switch d.Name {
		case "BenchmarkGEMM":
			if !d.Regression {
				t.Errorf("GEMM +50%% not flagged: %+v", d)
			}
		case "BenchmarkStable":
			if d.Regression || d.Improvement {
				t.Errorf("Stable wrongly flagged: %+v", d)
			}
		}
	}
}

func TestCompareUnchangedRunPasses(t *testing.T) {
	old := mkRecord("old", mkResult("BenchmarkGEMM", "ns/op", 1000, 1010, 990))
	same := mkRecord("new", mkResult("BenchmarkGEMM", "ns/op", 1005, 995, 1002))
	cmp, err := Compare(old, same, DefaultCompareOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressions != 0 {
		t.Fatalf("unchanged run flagged %d regressions: %+v", cmp.Regressions, cmp.Deltas)
	}
}

// Higher-is-better units regress downward: a req/s drop is the failure.
func TestCompareHigherIsBetterDirection(t *testing.T) {
	old := mkRecord("old", mkResult("loadgen/forward", "req/s", 4800, 4750))
	slower := mkRecord("new", mkResult("loadgen/forward", "req/s", 3000, 3010))
	cmp, err := Compare(old, slower, DefaultCompareOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressions != 1 {
		t.Fatalf("req/s drop not flagged: %+v", cmp.Deltas)
	}
	faster := mkRecord("new", mkResult("loadgen/forward", "req/s", 6000, 6010))
	cmp, err = Compare(old, faster, DefaultCompareOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Regressions != 0 || !cmp.Deltas[0].Improvement {
		t.Fatalf("req/s gain misjudged: %+v", cmp.Deltas)
	}
}

// The noise floor widens for noisy series: a 15% delta on a 10%-CV series
// must not alarm under NoiseMult 2.
func TestCompareNoiseFloor(t *testing.T) {
	old := mkRecord("old", mkResult("BenchmarkJittery", "ns/op", 900, 1100, 1000)) // CV ~10%
	newer := mkRecord("new", mkResult("BenchmarkJittery", "ns/op", 1150, 1150, 1150))
	cmp, err := Compare(old, newer, DefaultCompareOptions())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Deltas[0].Regression {
		t.Fatalf("15%% delta inside 2x10%% noise floor flagged: %+v", cmp.Deltas[0])
	}
	if cmp.Deltas[0].Floor <= 0.10 {
		t.Errorf("floor %v should exceed the base threshold", cmp.Deltas[0].Floor)
	}
}

func TestCompareDisjointSeriesErrors(t *testing.T) {
	old := mkRecord("old", mkResult("BenchmarkA", "ns/op", 1))
	newer := mkRecord("new", mkResult("BenchmarkB", "ns/op", 1))
	if _, err := Compare(old, newer, DefaultCompareOptions()); err == nil {
		t.Fatal("disjoint records must not vacuously pass")
	}
}

func TestComparePartialOverlapListsExtras(t *testing.T) {
	old := mkRecord("old",
		mkResult("BenchmarkA", "ns/op", 100),
		mkResult("BenchmarkGone", "ns/op", 100),
	)
	newer := mkRecord("new",
		mkResult("BenchmarkA", "ns/op", 101),
		mkResult("BenchmarkFresh", "ns/op", 100),
	)
	cmp, err := Compare(old, newer, DefaultCompareOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.OnlyOld) != 1 || len(cmp.OnlyNew) != 1 || len(cmp.Deltas) != 1 {
		t.Fatalf("overlap accounting wrong: %+v", cmp)
	}
	var sb strings.Builder
	WriteComparison(&sb, cmp)
	out := sb.String()
	if !strings.Contains(out, "BenchmarkFresh") || !strings.Contains(out, "BenchmarkGone") {
		t.Errorf("rendered comparison omits extras:\n%s", out)
	}
}

// TestCompareBenchtimeMismatchNotComparable: a candidate measured at
// -benchtime 1x against a baseline measured at 300ms is shown but never
// judged, however far apart the means; the same records at one benchtime
// still flag the regression.
func TestCompareBenchtimeMismatchNotComparable(t *testing.T) {
	old := mkRecord("old", mkResult("BenchmarkTreeFit", "allocs/op", 14, 14, 14))
	old.Source = "go test -run ^$ -bench TreeFit -benchtime 300ms -count=5 rounds ./internal/classifiers"
	cold := mkRecord("new", mkResult("BenchmarkTreeFit", "allocs/op", 25))
	cold.Source = "go test -run ^$ -bench TreeFit -benchtime 1x -count=1 rounds ./internal/classifiers"
	cmp, err := Compare(old, cold, DefaultCompareOptions())
	if err != nil {
		t.Fatal(err)
	}
	d := cmp.Deltas[0]
	if cmp.Regressions != 0 || cmp.NotComparable != 1 || d.Regression || d.NotComparable != "1x vs 300ms" {
		t.Fatalf("benchtime mismatch judged: %+v", cmp)
	}
	var sb strings.Builder
	WriteComparison(&sb, cmp)
	if !strings.Contains(sb.String(), "not comparable (1x vs 300ms)") {
		t.Errorf("rendered comparison does not say why:\n%s", sb.String())
	}
	cold.Source = old.Source
	if cmp, err = Compare(old, cold, DefaultCompareOptions()); err != nil {
		t.Fatal(err)
	}
	if cmp.Regressions != 1 || cmp.NotComparable != 0 {
		t.Fatalf("same benchtime: regressions %d, not comparable %d", cmp.Regressions, cmp.NotComparable)
	}
}
