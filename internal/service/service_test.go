package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// postTrain posts a train request for dsID with the given params JSON and
// returns the status with the model id or the error envelope's message.
func postTrain(ctx context.Context, t *testing.T, url, platform, dsID, classifier, params string) (code int, id, msg string) {
	t.Helper()
	body := fmt.Sprintf(`{"dataset":%q,"classifier":%q,"params":%s}`, dsID, classifier, params)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/platforms/"+platform+"/models", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct{ ID, Error string }
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out.ID, out.Error
}

// A param value of the wrong JSON type used to train the default model
// under a new content id (and a fractional int was truncated where the
// classifier rounds); each is now a 400 naming the key, while the same
// values in the right type train.
func TestTrainRejectsParamOfWrongType(t *testing.T) {
	srv, c := newTestServer(t)
	ctx := context.Background()
	dsID, err := c.Upload(ctx, "local", testSplit(t).Train)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ classifier, params, key string }{
		{"mlp", `{"activation":3}`, "activation"},
		{"dtree", `{"max_depth":"deep"}`, "max_depth"},
		{"randomforest", `{"n_estimators":10.7}`, "n_estimators"},
	} {
		code, _, msg := postTrain(ctx, t, srv.URL, "local", dsID, tc.classifier, tc.params)
		if code != http.StatusBadRequest || !strings.Contains(msg, strconv.Quote(tc.key)) {
			t.Errorf("%s %s: status %d %s, want 400 naming %q", tc.classifier, tc.params, code, msg, tc.key)
		}
	}
	for _, tc := range []struct{ classifier, params string }{
		{"mlp", `{"activation":"tanh","alpha":1}`},
		{"dtree", `{"max_depth":4}`},
		{"randomforest", `{"n_estimators":10.0}`},
	} {
		if code, _, msg := postTrain(ctx, t, srv.URL, "local", dsID, tc.classifier, tc.params); code != http.StatusCreated {
			t.Errorf("%s %s: status %d %s, want 201", tc.classifier, tc.params, code, msg)
		}
	}
}

// A value outside its spec's options or [Min, Max] is a 400 naming the key
// and what it allows, where it used to train: an unknown activation trained
// the relu model under a second id, and a negative alpha trained. An
// explicit default gives the id of the omitted one, and a platform's own
// default passes even below the registry minimum (Microsoft's SVM iterates
// once by default; the registry's max_iter floor is 2).
func TestTrainRejectsParamOutsideSpec(t *testing.T) {
	srv, c := newTestServer(t)
	ctx := context.Background()
	ids := map[string]string{}
	for _, platform := range []string{"local", "microsoft"} {
		dsID, err := c.Upload(ctx, platform, testSplit(t).Train)
		if err != nil {
			t.Fatal(err)
		}
		ids[platform] = dsID
	}
	for _, tc := range []struct{ params, key, allowed string }{
		{`{"activation":"foo"}`, "activation", "[relu tanh logistic]"},
		{`{"alpha":-1}`, "alpha", "[1e-08, 10]"},
		{`{"max_iter":201}`, "max_iter", "[2, 200]"},
	} {
		code, id, msg := postTrain(ctx, t, srv.URL, "local", ids["local"], "mlp", tc.params)
		if code != http.StatusBadRequest || !strings.Contains(msg, strconv.Quote(tc.key)) || !strings.Contains(msg, tc.allowed) {
			t.Errorf("mlp %s: status %d %q %s, want 400 naming %q and %s", tc.params, code, id, msg, tc.key, tc.allowed)
		}
	}
	for _, tc := range []struct {
		platform, classifier string
		same                 []string
	}{
		{"local", "mlp", []string{`{}`, `{"activation":"relu"}`}},
		{"microsoft", "svm", []string{`{}`, `{"max_iter":1}`}},
	} {
		var first string
		for _, params := range tc.same {
			code, id, msg := postTrain(ctx, t, srv.URL, tc.platform, ids[tc.platform], tc.classifier, params)
			if code != http.StatusCreated {
				t.Fatalf("%s %s %s: status %d %s, want 201", tc.platform, tc.classifier, params, code, msg)
			}
			if first == "" {
				first = id
			} else if id != first {
				t.Errorf("%s %s %s: id %s, want %s (the id of %s)", tc.platform, tc.classifier, params, id, first, tc.same[0])
			}
		}
	}
}

// Split parameters below their declared minimum are refused at the API
// (in-process fits of them are TestTreeLearnersFitBelowParamMinimum's), and
// refused again on a second try: a refusal parks nothing that a later
// train of the same key could wait on.
func TestTrainBelowParamMinimumRefused(t *testing.T) {
	srv, c := newTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dsID, err := c.Upload(ctx, "microsoft", testSplit(t).Train)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ classifier, params, key string }{
		{"randomforest", `{"random_splits":-1}`, "random_splits"},
		{"jungle", `{"opt_steps":0}`, "opt_steps"},
		{"jungle", `{"opt_steps":-1}`, "opt_steps"},
	} {
		for round := 0; round < 2; round++ {
			code, _, msg := postTrain(ctx, t, srv.URL, "microsoft", dsID, tc.classifier, tc.params)
			if code != http.StatusBadRequest || !strings.Contains(msg, strconv.Quote(tc.key)) {
				t.Fatalf("%s %s round %d: status %d %s, want 400 naming %q", tc.classifier, tc.params, round, code, msg, tc.key)
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
