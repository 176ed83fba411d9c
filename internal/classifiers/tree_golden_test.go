package classifiers

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"mlaasbench/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// treeGoldenConfigs spans every knob the tree learners expose: bagging's
// feature subsets and node threshold, the forest's leaf size, depth, random
// splits and both resampling modes, dtree under both criteria, boosted, and
// the jungle at its defaults, at its narrowest width and at a deep, wide DAG
// with many random thresholds per split.
var treeGoldenConfigs = []struct {
	name   string
	params Params
}{
	{"bagging", Params{"n_estimators": 5}},
	{"bagging", Params{"n_estimators": 5, "max_features": "sqrt"}},
	{"bagging", Params{"n_estimators": 5, "max_features": "log2", "node_threshold": 9}},
	{"bagging", Params{"n_estimators": 4, "node_threshold": 24}},
	{"randomforest", Params{"n_estimators": 5}},
	{"randomforest", Params{"n_estimators": 5, "min_samples_leaf": 3}},
	{"randomforest", Params{"n_estimators": 5, "max_depth": 3, "max_features": "all"}},
	{"randomforest", Params{"n_estimators": 5, "random_splits": 4}},
	{"randomforest", Params{"n_estimators": 5, "random_splits": 16, "min_samples_leaf": 2, "max_depth": 5}},
	{"randomforest", Params{"n_estimators": 5, "resampling": "replicate"}},
	{"randomforest", Params{"n_estimators": 5, "resampling": "replicate", "random_splits": 4, "min_samples_leaf": 2}},
	{"dtree", Params{}},
	{"dtree", Params{"criterion": "entropy", "max_features": "sqrt", "node_threshold": 5}},
	{"boosted", Params{"n_estimators": 8}},
	{"jungle", Params{}},
	{"jungle", Params{"n_dags": 3, "max_width": 2, "opt_steps": 1}},
	{"jungle", Params{"n_dags": 4, "max_depth": 12, "opt_steps": 5, "max_width": 64}},
}

// treeGoldenData is a labelled matrix whose columns are drawn from a coarse
// grid (so many rows tie on a feature), optionally with whole rows copied.
type treeGoldenData struct {
	name string
	x    [][]float64
	y    []int
}

// treeGoldenDatasets returns the datasets TestTreeArtifactsGolden fits on.
// All have ties; "dupes" also repeats whole rows with conflicting labels,
// and "binary" has only two values per feature.
func treeGoldenDatasets() []treeGoldenData {
	gen := func(name string, seed uint64, n, d int, cell func(r *rng.RNG) float64, label func(row []float64, r *rng.RNG) bool) treeGoldenData {
		r := rng.New(seed)
		ds := treeGoldenData{name: name, x: make([][]float64, n), y: make([]int, n)}
		for i := range ds.x {
			row := make([]float64, d)
			for j := range row {
				row[j] = cell(r)
			}
			ds.x[i] = row
			if label(row, r) {
				ds.y[i] = 1
			}
		}
		return ds
	}
	quarter := gen("quarter", 17, 150, 5,
		func(r *rng.RNG) float64 { return math.Round(r.NormFloat64()*4) / 4 },
		func(row []float64, _ *rng.RNG) bool { return row[0]*row[1]+row[2] > 0 })
	coarse := gen("coarse", 29, 200, 8,
		func(r *rng.RNG) float64 { return float64(r.Intn(5)) },
		func(row []float64, r *rng.RNG) bool { return row[0]+row[3] > 5 || r.Bernoulli(0.1) })
	wide := gen("wide", 31, 90, 20,
		func(r *rng.RNG) float64 { return math.Round(r.Uniform(-3, 3)*2) / 2 },
		func(row []float64, _ *rng.RNG) bool { return row[4]-row[11]+0.5*row[17] > 0 })
	binary := gen("binary", 37, 160, 6,
		func(r *rng.RNG) float64 { return float64(r.Intn(2)) },
		func(row []float64, r *rng.RNG) bool { return (row[0] == 1) != (row[1] == 1) || r.Bernoulli(0.05) })
	base := gen("dupes", 41, 60, 4,
		func(r *rng.RNG) float64 { return float64(r.Intn(7)) / 2 },
		func(row []float64, _ *rng.RNG) bool { return row[0] > row[2] })
	dupes := treeGoldenData{name: "dupes"}
	r := rng.New(43)
	for i, row := range base.x {
		for c := 1 + r.Intn(3); c > 0; c-- {
			label := base.y[i]
			if r.Bernoulli(0.15) {
				label = 1 - label
			}
			dupes.x = append(dupes.x, row)
			dupes.y = append(dupes.y, label)
		}
	}
	return []treeGoldenData{quarter, coarse, wide, binary, dupes}
}

// TestTreeArtifactsGolden pins the fitted state of every tree learner — the
// AppendFitted bytes an MLMF artifact carries — by SHA-256, over every
// treeGoldenConfigs entry × dataset × seed. A change to tree growth that
// claims to grow the same trees must pass it unchanged; regenerate with
//
//	go test ./internal/classifiers -run TestTreeArtifactsGolden -update
//
// only when a change is meant to grow different trees.
func TestTreeArtifactsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, ds := range treeGoldenDatasets() {
		for _, c := range treeGoldenConfigs {
			for seed := uint64(1); seed <= 3; seed++ {
				art, _ := fitArtifact(t, c.name, c.params, ds.x, func(clf Classifier) error {
					return clf.Fit(ds.x, ds.y, rng.New(seed))
				})
				fmt.Fprintf(&b, "%s %s %v seed=%d %x\n", ds.name, c.name, c.params, seed, sha256.Sum256(art))
			}
		}
	}
	path := filepath.Join("testdata", "tree_artifacts.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		gotLines, wantLines := bytes.Split(b.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("tree artifacts differ from %s at line %d:\n got %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("tree artifacts differ from %s: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}
