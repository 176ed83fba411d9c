package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenArtifact is one fitted model and the MLMF bytes it encodes to.
type goldenArtifact struct {
	name string
	key  string
	m    platforms.FittedModel
	art  []byte
}

// goldenArtifacts fits every classifier's default config, every platform's
// baseline config, and the configs whose FEAT transform carries fitted
// state (scaler moments, filter columns, the Fisher LDA projection), each
// over two seeds, and encodes each under a key that names it.
func goldenArtifacts(t *testing.T) []goldenArtifact {
	t.Helper()
	train, _ := trainTestData(t)
	var out []goldenArtifact
	add := func(name string, seed uint64, m platforms.FittedModel) {
		key := fmt.Sprintf("%s/seed=%d", name, seed)
		art, err := EncodeModel(key, m)
		if err != nil {
			t.Fatalf("%s: EncodeModel: %v", key, err)
		}
		out = append(out, goldenArtifact{name: name, key: key, m: m, art: art})
	}
	for _, seed := range []uint64{1, 2} {
		for _, name := range classifiers.Names() {
			params, err := classifiers.DefaultParams(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := pipeline.Config{Feat: pipeline.Feat{Kind: "none"}, Classifier: name, Params: params}
			fp, err := pipeline.Fit(context.Background(), cfg, train, rng.New(seed), nil)
			if err != nil {
				t.Fatalf("%s: Fit: %v", name, err)
			}
			add("classifier/"+name, seed, fp)
		}
		for _, p := range platforms.All() {
			var cfg pipeline.Config
			if base := p.BaselineClassifier(); base != "" {
				var err error
				if cfg, err = p.Surface().DefaultConfig(base); err != nil {
					t.Fatal(err)
				}
			}
			m, err := p.Fit(cfg, train, seed)
			if err != nil {
				t.Fatalf("%s: Fit: %v", p.Name(), err)
			}
			add("platform/"+p.Name(), seed, m)
		}
		for _, tc := range []struct {
			platform   string
			feat       pipeline.Feat
			classifier string
		}{
			{"local", pipeline.Feat{Kind: "scaler", Name: "standard"}, "mlp"},
			{"local", pipeline.Feat{Kind: "scaler", Name: "minmax"}, "knn"},
			{"local", pipeline.Feat{Kind: "filter", Name: "fisher"}, "randomforest"},
			{"microsoft", pipeline.Feat{Kind: "fisherlda"}, "boosted"},
		} {
			p, err := platforms.New(tc.platform)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := p.Surface().DefaultConfig(tc.classifier)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Feat = tc.feat
			m, err := p.Fit(cfg, train, seed)
			if err != nil {
				t.Fatalf("%s/%s: Fit: %v", tc.platform, cfg, err)
			}
			add("feat/"+tc.platform+"/"+cfg.String(), seed, m)
		}
	}
	return out
}

// TestModelArtifactsGolden pins the MLMF bytes EncodeModel writes for every
// goldenArtifacts model by SHA-256. A change to the store or a codec that
// claims to write the same artifacts must pass it unchanged; regenerate with
//
//	go test ./internal/store -run TestModelArtifactsGolden -update
//
// only when a change is meant to write different bytes.
func TestModelArtifactsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, g := range goldenArtifacts(t) {
		fmt.Fprintf(&b, "%s %d %x\n", g.key, len(g.art), sha256.Sum256(g.art))
	}
	path := filepath.Join("testdata", "model_artifacts.golden")
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
				t.Fatalf("model artifacts differ from %s at line %d:\n got %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("model artifacts differ from %s: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}
