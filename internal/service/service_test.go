package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlaasbench/internal/client"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/service"
	"mlaasbench/internal/synth"
)

func newTestServer(t *testing.T) (*httptest.Server, *client.Client) {
	t.Helper()
	srv := httptest.NewServer(service.NewServer(func(string, ...any) {}).Handler())
	t.Cleanup(srv.Close)
	return srv, client.New(srv.URL)
}

func testSplit(t *testing.T) dataset.Split {
	t.Helper()
	ds := synth.GenerateClean(synth.Spec{Name: "svc", Gen: synth.GenLinear, N: 120, D: 3, Noise: 0.2}, synth.Quick, 1)
	return ds.StratifiedSplit(0.7, rng.New(2))
}

func TestListPlatforms(t *testing.T) {
	_, c := newTestServer(t)
	infos, err := c.Platforms(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 7 {
		t.Fatalf("%d platforms", len(infos))
	}
	if infos[0].Name != "google" || !infos[0].BlackBox {
		t.Fatalf("first platform %+v", infos[0])
	}
	if infos[6].Name != "local" || infos[6].Classifiers != 10 {
		t.Fatalf("last platform %+v", infos[6])
	}
}

func TestSurfaceEndpoint(t *testing.T) {
	_, c := newTestServer(t)
	doc, err := c.Surface(context.Background(), "microsoft")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Feats) != 8 || len(doc.Classifiers) != 7 {
		t.Fatalf("microsoft surface %d feats, %d classifiers", len(doc.Feats), len(doc.Classifiers))
	}
	if _, err := c.Surface(context.Background(), "watson"); err == nil {
		t.Fatal("expected 404")
	}
}

func TestEndToEndMeasurement(t *testing.T) {
	_, c := newTestServer(t)
	sp := testSplit(t)
	cfg := pipeline.Config{Classifier: "logreg", Params: map[string]any{}}
	scores, err := c.Measure(context.Background(), "local", sp, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if scores.F1 < 0.7 {
		t.Fatalf("F1 %.3f over the wire on separable data", scores.F1)
	}
}

func TestBlackBoxOverHTTP(t *testing.T) {
	_, c := newTestServer(t)
	sp := testSplit(t)
	scores, err := c.Measure(context.Background(), "google", sp, pipeline.Config{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if scores.F1 < 0.7 {
		t.Fatalf("google F1 %.3f", scores.F1)
	}
}

func TestBlackBoxRejectsConfig(t *testing.T) {
	_, c := newTestServer(t)
	sp := testSplit(t)
	ctx := context.Background()
	dsID, err := c.Upload(ctx, "abm", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.Config{Classifier: "logreg", Params: map[string]any{}}
	if _, err := c.Train(ctx, "abm", dsID, cfg, 1); err == nil {
		t.Fatal("black box must reject explicit configuration")
	}
}

func TestTrainRejectsForeignClassifier(t *testing.T) {
	_, c := newTestServer(t)
	sp := testSplit(t)
	ctx := context.Background()
	dsID, err := c.Upload(ctx, "amazon", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.Config{Classifier: "randomforest", Params: map[string]any{}}
	if _, err := c.Train(ctx, "amazon", dsID, cfg, 1); err == nil {
		t.Fatal("amazon must reject classifiers outside its surface")
	}
}

func TestTrainRejectsUnknownParam(t *testing.T) {
	_, c := newTestServer(t)
	sp := testSplit(t)
	ctx := context.Background()
	dsID, _ := c.Upload(ctx, "amazon", sp.Train)
	cfg := pipeline.Config{Classifier: "logreg", Params: map[string]any{"gamma": 1.0}}
	if _, err := c.Train(ctx, "amazon", dsID, cfg, 1); err == nil {
		t.Fatal("unexposed parameter must be rejected")
	}
}

// Split parameters below their declared minimum reach the fit unchecked;
// the model must still train and serve, and a later train or predict of
// the same key must not wait on a fit that never finished.
func TestTrainBelowParamMinimumServes(t *testing.T) {
	_, c := newTestServer(t)
	sp := testSplit(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dsID, err := c.Upload(ctx, "microsoft", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []pipeline.Config{
		{Classifier: "randomforest", Params: map[string]any{"random_splits": -1}},
		{Classifier: "jungle", Params: map[string]any{"opt_steps": 0}},
		{Classifier: "jungle", Params: map[string]any{"opt_steps": -1}},
	} {
		for round := 0; round < 2; round++ {
			id, err := c.Train(ctx, "microsoft", dsID, cfg, 1)
			if err != nil {
				t.Fatalf("%v round %d: train: %v", cfg, round, err)
			}
			if _, err := c.Predict(ctx, "microsoft", id, sp.Test.X); err != nil {
				t.Fatalf("%v round %d: predict: %v", cfg, round, err)
			}
		}
	}
}

func TestUploadRejectsMissingValues(t *testing.T) {
	srv, _ := newTestServer(t)
	body := `{"name":"m","x":[[1],[null]],"y":[0,1]}`
	resp, err := http.Post(srv.URL+"/v1/platforms/local/datasets", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// null decodes to 0 actually... send NaN via CSV instead: empty field.
	csv := "f0,label\n1,0\n,1\n"
	resp2, err := http.Post(srv.URL+"/v1/platforms/local/datasets", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing-value upload got %d, want 400", resp2.StatusCode)
	}
}

func TestUploadCSV(t *testing.T) {
	srv, c := newTestServer(t)
	sp := testSplit(t)
	var buf bytes.Buffer
	if err := sp.Train.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/platforms/local/datasets", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("csv upload status %d", resp.StatusCode)
	}
	var up service.UploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if up.Samples != sp.Train.N() || up.Columns != sp.Train.D() {
		t.Fatalf("upload echo %+v", up)
	}
	// The CSV-uploaded dataset must be trainable.
	cfg := pipeline.Config{Classifier: "logreg", Params: map[string]any{}}
	if _, err := c.Train(context.Background(), "local", up.ID, cfg, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPredictValidatesWidth(t *testing.T) {
	_, c := newTestServer(t)
	sp := testSplit(t)
	ctx := context.Background()
	dsID, _ := c.Upload(ctx, "local", sp.Train)
	cfg := pipeline.Config{Classifier: "logreg", Params: map[string]any{}}
	mID, err := c.Train(ctx, "local", dsID, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Predict(ctx, "local", mID, [][]float64{{1, 2}}); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestPredictUnknownModel(t *testing.T) {
	_, c := newTestServer(t)
	if _, err := c.Predict(context.Background(), "local", "m-999", [][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("expected 404")
	}
}

func TestModelsAreDeterministicOverHTTP(t *testing.T) {
	_, c := newTestServer(t)
	sp := testSplit(t)
	ctx := context.Background()
	dsID, _ := c.Upload(ctx, "local", sp.Train)
	cfg := pipeline.Config{Classifier: "randomforest", Params: map[string]any{"n_estimators": 5}}
	mID, err := c.Train(ctx, "local", dsID, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Predict(ctx, "local", mID, sp.Test.X)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Predict(ctx, "local", mID, sp.Test.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same model id produced different predictions")
		}
	}
}

func TestDatasetsAreScopedPerPlatform(t *testing.T) {
	_, c := newTestServer(t)
	sp := testSplit(t)
	ctx := context.Background()
	dsID, _ := c.Upload(ctx, "local", sp.Train)
	cfg := pipeline.Config{Classifier: "logreg", Params: map[string]any{}}
	if _, err := c.Train(ctx, "bigml", dsID, cfg, 1); err == nil {
		t.Fatal("dataset ids must not leak across platforms")
	}
}
