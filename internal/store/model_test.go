package store

import (
	"context"
	"errors"
	"testing"
	"time"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/codec"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

func trainTestData(t *testing.T) (*dataset.Dataset, [][]float64) {
	t.Helper()
	full := synth.GenerateClean(synth.Spec{Name: "store-model", Gen: synth.GenClusters, N: 110, D: 6, Noise: 0.3}, synth.Quick, 5)
	sp := full.StratifiedSplit(0.7, rng.New(3))
	return sp.Train, sp.Test.X
}

func assertSameLabels(t *testing.T, ctx string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d labels, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: label %d is %d, want %d", ctx, i, got[i], want[i])
		}
	}
}

// encodeDecode round-trips a fitted model through the MLMF bytes.
func encodeDecode(t *testing.T, ctx, key string, m platforms.FittedModel) platforms.FittedModel {
	t.Helper()
	b, err := EncodeModel(key, m)
	if err != nil {
		t.Fatalf("%s: EncodeModel: %v", ctx, err)
	}
	gotKey, got, err := DecodeModel(b)
	if err != nil {
		t.Fatalf("%s: DecodeModel: %v", ctx, err)
	}
	if gotKey != key {
		t.Fatalf("%s: key %q, want %q", ctx, gotKey, key)
	}
	return got
}

// TestModelRoundTripEveryClassifier is the per-classifier oracle: every
// registered classifier, trained through the pipeline, must predict
// byte-identically after an MLMF round-trip. This exercises every branch of
// the classifier codec (weights, trees, DAGs, kNN backing, MLP layers).
func TestModelRoundTripEveryClassifier(t *testing.T) {
	train, points := trainTestData(t)
	for _, name := range classifiers.Names() {
		params, err := classifiers.DefaultParams(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := pipeline.Config{Feat: pipeline.Feat{Kind: "none"}, Classifier: name, Params: params}
		fp, err := pipeline.Fit(context.Background(), cfg, train, rng.New(11))
		if err != nil {
			t.Fatalf("%s: Fit: %v", name, err)
		}
		want := fp.Predict(points)
		got := encodeDecode(t, name, "k/"+name, fp)
		assertSameLabels(t, name, got.Predict(points), want)
		// Decoded models must also be stable across repeated use.
		assertSameLabels(t, name+" (reuse)", got.Predict(points), want)
	}
}

// TestModelRoundTripEveryPlatform covers the platform layer: default
// configs everywhere (including Amazon's hidden binner, which serializes as
// a binnedModel) plus FEAT transforms that carry fitted state.
func TestModelRoundTripEveryPlatform(t *testing.T) {
	train, points := trainTestData(t)
	for _, p := range platforms.All() {
		var cfg pipeline.Config
		if base := p.BaselineClassifier(); base != "" {
			var err error
			cfg, err = p.Surface().DefaultConfig(base)
			if err != nil {
				t.Fatal(err)
			}
		}
		m, err := p.Fit(cfg, train, 42)
		if err != nil {
			t.Fatalf("%s: Fit: %v", p.Name(), err)
		}
		want := m.Predict(points)
		got := encodeDecode(t, p.Name(), p.Name()+"/ds/cfg/42", m)
		assertSameLabels(t, p.Name(), got.Predict(points), want)
	}
}

// TestModelRoundTripFittedTransforms walks configs whose transform carries
// fitted state: scaler moments, filter column choice, the LDA projection.
func TestModelRoundTripFittedTransforms(t *testing.T) {
	train, points := trainTestData(t)
	cases := []struct {
		platform   string
		feat       pipeline.Feat
		classifier string
	}{
		{"local", pipeline.Feat{Kind: "scaler", Name: "standard"}, "mlp"},
		{"local", pipeline.Feat{Kind: "scaler", Name: "minmax"}, "svm"},
		{"local", pipeline.Feat{Kind: "filter", Name: "fisher"}, "randomforest"},
		{"microsoft", pipeline.Feat{Kind: "fisherlda"}, "boosted"},
		{"amazon", pipeline.Feat{Kind: "none"}, "logreg"},
		{"microsoft", pipeline.Feat{Kind: "none"}, "jungle"},
		{"local", pipeline.Feat{Kind: "none"}, "knn"},
	}
	for _, tc := range cases {
		p, err := platforms.New(tc.platform)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := p.Surface().DefaultConfig(tc.classifier)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Feat = tc.feat
		ctx := tc.platform + "/" + cfg.String()
		m, err := p.Fit(cfg, train, 7)
		if err != nil {
			t.Fatalf("%s: Fit: %v", ctx, err)
		}
		want := m.Predict(points)
		got := encodeDecode(t, ctx, ctx, m)
		assertSameLabels(t, ctx, got.Predict(points), want)
	}
}

// TestModelArtifactDeterministic: encoding the same key twice must produce
// identical bytes — the property that makes concurrent demotions of one key
// converge and lets PutModel skip rewrites.
func TestModelArtifactDeterministic(t *testing.T) {
	train, _ := trainTestData(t)
	p, err := platforms.New("local")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.Surface().DefaultConfig("randomforest")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Fit(cfg, train, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := EncodeModel("key", m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeModel("key", m)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("EncodeModel is not deterministic for the same model")
	}
}

// TestModelCorruptionDetected mirrors the MLDS corruption test for MLMF.
func TestModelCorruptionDetected(t *testing.T) {
	train, _ := trainTestData(t)
	p, err := platforms.New("local")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.Surface().DefaultConfig("logreg")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Fit(cfg, train, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeModel("key", m)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 5, 9, mlmfHeaderSize + 2, len(b) / 2, len(b) - 2} {
		mut := append([]byte(nil), b...)
		mut[off] ^= 0xff
		if _, _, err := DecodeModel(mut); err == nil {
			t.Fatalf("flipped byte at %d accepted", off)
		} else if !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("flipped byte at %d: error %v not classified ErrCorrupt", off, err)
		}
	}
	for _, n := range []int{0, 4, mlmfHeaderSize, len(b) - 4, len(b) - 1} {
		if _, _, err := DecodeModel(b[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestStorePutGet covers the directory layer: put, get, has, key binding,
// iteration order, and the missing-key path.
func TestStorePutGet(t *testing.T) {
	train, points := trainTestData(t)
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p, err := platforms.New("local")
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"local/ds-1/none|logreg/1", "local/ds-1/none|svm/1"}
	want := map[string][]int{}
	for i, clf := range []string{"logreg", "svm"} {
		cfg, err := p.Surface().DefaultConfig(clf)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Fit(cfg, train, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[keys[i]] = m.Predict(points)
		if err := s.PutModel(keys[i], m); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Len(); err != nil || n != 2 {
		t.Fatalf("Len = %d, %v; want 2", n, err)
	}
	for _, key := range keys {
		if !s.Has(key) {
			t.Fatalf("Has(%q) = false after Put", key)
		}
		m, ok, err := s.GetModel(key)
		if err != nil || !ok {
			t.Fatalf("GetModel(%q): ok=%v err=%v", key, ok, err)
		}
		assertSameLabels(t, key, m.Predict(points), want[key])
	}
	if _, ok, err := s.GetModel("no/such/key/0"); ok || err != nil {
		t.Fatalf("missing key: ok=%v err=%v, want false/nil", ok, err)
	}
	seen := 0
	skipped, err := s.Models(func(key string, m platforms.FittedModel, load time.Duration) error {
		if _, ok := want[key]; !ok {
			t.Fatalf("Models yielded unknown key %q", key)
		}
		if load < 0 {
			t.Fatal("negative load duration")
		}
		seen++
		return nil
	})
	if err != nil || seen != 2 || len(skipped) != 0 {
		t.Fatalf("Models: seen=%d skipped=%v err=%v", seen, skipped, err)
	}
}
