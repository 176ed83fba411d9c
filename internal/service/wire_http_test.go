package service_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"

	"mlaasbench/internal/client"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/service"
	"mlaasbench/internal/telemetry"
	"mlaasbench/internal/wire"
)

// trainOn uploads the split's train fold and trains one model, returning the
// model id for predict calls.
func trainOn(t *testing.T, c *client.Client, platform string, cfg pipeline.Config, sp dataset.Split) string {
	t.Helper()
	ctx := context.Background()
	dsID, err := c.Upload(ctx, platform, sp.Train)
	if err != nil {
		t.Fatalf("upload on %s: %v", platform, err)
	}
	mID, err := c.Train(ctx, platform, dsID, cfg, 9)
	if err != nil {
		t.Fatalf("train on %s: %v", platform, err)
	}
	return mID
}

// TestBinaryPredictMatchesJSON is the cross-codec oracle at the HTTP level:
// the same trained model predicting the same instances must return
// byte-identical labels whether the rows travel as a JSON body or as binary
// frames, across a user platform, Amazon's hidden binning and a black box.
func TestBinaryPredictMatchesJSON(t *testing.T) {
	sp := testSplit(t)
	ctx := context.Background()
	srv, jsonC, reg := newServingServer(t, service.DefaultModelCacheModels)
	binC := client.New(srv.URL).WithCodec(client.CodecBinary)

	cases := []struct {
		platform string
		cfg      pipeline.Config
	}{
		{"local", pipeline.Config{Classifier: "randomforest", Params: map[string]any{"n_estimators": 5}}},
		{"amazon", pipeline.Config{Classifier: "logreg", Params: map[string]any{"max_iter": 20}}},
		{"google", pipeline.Config{}},
	}
	for _, tc := range cases {
		mID := trainOn(t, jsonC, tc.platform, tc.cfg, sp)
		want, err := jsonC.Predict(ctx, tc.platform, mID, sp.Test.X)
		if err != nil {
			t.Fatalf("%s json predict: %v", tc.platform, err)
		}
		got, err := binC.Predict(ctx, tc.platform, mID, sp.Test.X)
		if err != nil {
			t.Fatalf("%s binary predict: %v", tc.platform, err)
		}
		mustSameLabels(t, tc.platform+" json-vs-binary", got, want)
	}
	if n := reg.Counter(telemetry.CodecRequestsTotal, "codec", "binary").Value(); n < int64(len(cases)) {
		t.Errorf("binary codec counter %d, want >= %d", n, len(cases))
	}
	if n := reg.Counter(telemetry.CodecRequestsTotal, "codec", "json").Value(); n < int64(len(cases)) {
		t.Errorf("json codec counter %d, want >= %d", n, len(cases))
	}
	if n := reg.Histogram(telemetry.WireFrameBytesHistogram, "dir", "rx").Count(); n < 1 {
		t.Errorf("no rx frame-bytes observations")
	}
	if n := reg.Histogram(telemetry.WireFrameBytesHistogram, "dir", "tx").Count(); n < 1 {
		t.Errorf("no tx frame-bytes observations")
	}
}

// TestBinaryPredictNegativeZeroMatchesJSON pushes -0.0 through both codecs.
// encoding/json round-trips "-0" and the wire codec is bit-exact, so the
// forward passes must see identical inputs and emit identical labels.
func TestBinaryPredictNegativeZeroMatchesJSON(t *testing.T) {
	sp := testSplit(t)
	ctx := context.Background()
	srv, jsonC, _ := newServingServer(t, service.DefaultModelCacheModels)
	binC := client.New(srv.URL).WithCodec(client.CodecBinary)
	mID := trainOn(t, jsonC, "local", pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, sp)

	negZero := math.Copysign(0, -1)
	instances := make([][]float64, len(sp.Test.X))
	for i, row := range sp.Test.X {
		r := append([]float64(nil), row...)
		r[i%len(r)] = negZero
		instances[i] = r
	}
	want, err := jsonC.Predict(ctx, "local", mID, instances)
	if err != nil {
		t.Fatalf("json predict: %v", err)
	}
	got, err := binC.Predict(ctx, "local", mID, instances)
	if err != nil {
		t.Fatalf("binary predict: %v", err)
	}
	mustSameLabels(t, "-0 payload", got, want)
}

// TestBinarySpecialFloatsDeterministic covers the payloads JSON cannot carry
// at all: NaN and ±Inf rows must transport bit-exact over the binary codec
// and predict deterministically — two identical requests, identical labels.
func TestBinarySpecialFloatsDeterministic(t *testing.T) {
	sp := testSplit(t)
	ctx := context.Background()
	srv, jsonC, _ := newServingServer(t, service.DefaultModelCacheModels)
	binC := client.New(srv.URL).WithCodec(client.CodecBinary)
	mID := trainOn(t, jsonC, "local", pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, sp)

	width := len(sp.Test.X[0])
	row := func(v float64) []float64 {
		r := make([]float64, width)
		for i := range r {
			r[i] = v
		}
		return r
	}
	instances := [][]float64{row(math.NaN()), row(math.Inf(1)), row(math.Inf(-1)), sp.Test.X[0]}
	first, err := binC.Predict(ctx, "local", mID, instances)
	if err != nil {
		t.Fatalf("binary predict with specials: %v", err)
	}
	second, err := binC.Predict(ctx, "local", mID, instances)
	if err != nil {
		t.Fatalf("second binary predict: %v", err)
	}
	mustSameLabels(t, "special floats repeat", second, first)
}

// postRaw fires one hand-built predict request and returns the response.
func postRaw(t *testing.T, url, contentType, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// errCode decodes the structured error envelope and returns its code.
func errCode(t *testing.T, raw []byte) string {
	t.Helper()
	var env struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("error envelope is not JSON: %v (%q)", err, raw)
	}
	return env.Code
}

// TestPredictRejectsBadBodiesBothCodecs drives the validation satellite:
// ragged or wrong-width rows, garbage bodies and empty batches must all
// come back as 400 with the structured code — in both codecs — before any
// row reaches a kernel.
func TestPredictRejectsBadBodiesBothCodecs(t *testing.T) {
	sp := testSplit(t)
	srv, c, _ := newServingServer(t, service.DefaultModelCacheModels)
	mID := trainOn(t, c, "local", pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, sp)
	url := srv.URL + "/v1/platforms/local/models/" + mID + "/predictions"
	width := len(sp.Test.X[0])

	// A zero-width frame claiming the row limit: 16 bytes on the wire.
	zeroWidth := wire.AppendMatrixFrame(nil, [][]float64{{}}, wire.FlagLast)
	binary.LittleEndian.PutUint32(zeroWidth[8:], wire.MaxFrameRows)
	wrongWidth := make([][]float64, 2)
	for i := range wrongWidth {
		wrongWidth[i] = make([]float64, width+1)
	}
	cases := []struct {
		name        string
		contentType string
		body        []byte
		wantCode    string
	}{
		{"json ragged row", "application/json",
			mustJSON(t, map[string]any{"instances": [][]float64{make([]float64, width), make([]float64, width-1)}}),
			"bad_row_width"},
		{"json wide row", "application/json",
			mustJSON(t, map[string]any{"instances": wrongWidth}),
			"bad_row_width"},
		{"json empty batch", "application/json",
			mustJSON(t, map[string]any{"instances": [][]float64{}}),
			"no_instances"},
		{"json garbage", "application/json", []byte("{nope"), "bad_payload"},
		{"binary wrong width", wire.ContentType,
			wire.EncodeMatrixStream(nil, wrongWidth, 0), "bad_row_width"},
		{"binary empty body", wire.ContentType, nil, "no_instances"},
		{"binary garbage", wire.ContentType, []byte("MLWFgarbage-here"), "bad_payload"},
		{"binary zero-width rows", wire.ContentType, zeroWidth, "bad_payload"},
		{"binary truncated", wire.ContentType,
			wire.EncodeMatrixStream(nil, sp.Test.X[:2], 0)[:wire.HeaderSize+3], "bad_payload"},
	}
	for _, tc := range cases {
		resp, raw := postRaw(t, url, tc.contentType, "", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, raw)
			continue
		}
		if got := errCode(t, raw); got != tc.wantCode {
			t.Errorf("%s: code %q, want %q", tc.name, got, tc.wantCode)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestAcceptHeaderSwitchesResponseCodec exercises asymmetric negotiation:
// a JSON request with Accept: frames gets a binary response, and a binary
// request with Accept: application/json gets JSON — same labels each way.
func TestAcceptHeaderSwitchesResponseCodec(t *testing.T) {
	sp := testSplit(t)
	ctx := context.Background()
	srv, c, _ := newServingServer(t, service.DefaultModelCacheModels)
	mID := trainOn(t, c, "local", pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, sp)
	url := srv.URL + "/v1/platforms/local/models/" + mID + "/predictions"

	want, err := c.Predict(ctx, "local", mID, sp.Test.X)
	if err != nil {
		t.Fatal(err)
	}

	// JSON in, frames out.
	resp, raw := postRaw(t, url, "application/json",
		wire.ContentType, mustJSON(t, map[string]any{"instances": sp.Test.X}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upgrade status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("upgrade response Content-Type %q, want %q", ct, wire.ContentType)
	}
	got, err := wire.DecodeLabelsStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode upgraded response: %v", err)
	}
	mustSameLabels(t, "json->frames upgrade", got, want)

	// Frames in, JSON out.
	resp, raw = postRaw(t, url, wire.ContentType,
		"application/json", wire.EncodeMatrixStream(nil, sp.Test.X, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("downgrade status %d: %s", resp.StatusCode, raw)
	}
	var pr struct {
		Labels []int `json:"labels"`
	}
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatalf("downgrade response is not JSON: %v (%q)", err, raw)
	}
	mustSameLabels(t, "frames->json downgrade", pr.Labels, want)
}

// TestMultiFrameStreamingPredict sends the batch as many small frames in one
// request body and expects the stitched labels to match the single-frame
// request exactly — the server predicts frame by frame, in order.
func TestMultiFrameStreamingPredict(t *testing.T) {
	sp := testSplit(t)
	ctx := context.Background()
	srv, c, _ := newServingServer(t, service.DefaultModelCacheModels)
	mID := trainOn(t, c, "local", pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, sp)
	url := srv.URL + "/v1/platforms/local/models/" + mID + "/predictions"

	want, err := c.Predict(ctx, "local", mID, sp.Test.X)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 3, 7} {
		body := wire.EncodeMatrixStream(nil, sp.Test.X, chunk)
		resp, raw := postRaw(t, url, wire.ContentType, "", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chunk %d: status %d: %s", chunk, resp.StatusCode, raw)
		}
		got, err := wire.DecodeLabelsStream(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("chunk %d: decode: %v", chunk, err)
		}
		mustSameLabels(t, "multi-frame", got, want)
	}
}
