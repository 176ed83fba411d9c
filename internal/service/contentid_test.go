package service_test

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"regexp"
	"testing"

	"mlaasbench/internal/client"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/service"
	"mlaasbench/internal/store"
	"mlaasbench/internal/telemetry"
)

var dtree = pipeline.Config{Classifier: "dtree", Params: map[string]any{}}

// oracleLabels fits cfg on train in-process, with no server and no store.
func oracleLabels(t *testing.T, platform string, train *dataset.Dataset, seed uint64, x [][]float64) []int {
	t.Helper()
	p, err := platforms.New(platform)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.Surface().DefaultConfig(dtree.Classifier)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Fit(cfg, train, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m.Predict(x)
}

// labelFlipped is ds with every binary label inverted, same name and rows.
func labelFlipped(ds *dataset.Dataset) *dataset.Dataset {
	out := *ds
	out.Y = make([]int, len(ds.Y))
	for i, y := range ds.Y {
		out.Y[i] = 1 - y
	}
	return &out
}

// serveOnce runs upload → train dtree → predict against a fresh server
// over dir and returns the ids, the labels and how many fits the server ran.
func serveOnce(t *testing.T, dir string, train *dataset.Dataset, x [][]float64) (dsID, mID string, labels []int, fits int64) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	api := service.NewServer(func(string, ...any) {}).WithRegistry(reg).WithStore(st)
	if _, err := api.WarmFromStore(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	ctx := context.Background()
	c := client.New(srv.URL)
	if dsID, err = c.Upload(ctx, "local", train); err != nil {
		t.Fatal(err)
	}
	if mID, err = c.Train(ctx, "local", dsID, dtree, 7); err != nil {
		t.Fatal(err)
	}
	if labels, err = c.Predict(ctx, "local", mID, x); err != nil {
		t.Fatal(err)
	}
	return dsID, mID, labels, reg.Counter(telemetry.ModelCacheMisses).Value()
}

// TestRestartOverStoreServesTheUploadedData is the stale-artifact
// regression: a server fits dtree on A and persists it; a restarted server
// over the same store dir is given the same data, A with every label
// flipped, or A's values under a new name. Each must predict exactly what a
// storeless in-process fit of what it was given predicts, fitting only when
// the data differs. With counter ids the flipped upload was ds-1 again and
// served A's model from disk with zero fits.
func TestRestartOverStoreServesTheUploadedData(t *testing.T) {
	sp := testSplit(t)
	renamed := *sp.Train
	renamed.Name = "svc-renamed"
	cases := []struct {
		name string
		data *dataset.Dataset
		fits int64
	}{
		{"same data", sp.Train, 0},
		{"label-flipped", labelFlipped(sp.Train), 1},
		{"renamed", &renamed, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			serveOnce(t, dir, sp.Train, sp.Test.X)
			_, _, got, fits := serveOnce(t, dir, tc.data, sp.Test.X)
			mustSameLabels(t, tc.name, got, oracleLabels(t, "local", tc.data, 7, sp.Test.X))
			if fits != tc.fits {
				t.Fatalf("restarted server ran %d fits, want %d", fits, tc.fits)
			}
		})
	}
}

var (
	datasetIDPattern = regexp.MustCompile(`^ds-[0-9a-f]{32}$`)
	modelIDPattern   = regexp.MustCompile(`^m-[0-9a-f]{32}$`)
)

// TestUploadAndTrainAreIdempotent: ids are content addresses. Re-uploading
// returns the same dataset id, the same values under another name a new
// one (the name seeds stochastic learners), and re-training the same
// description returns the same model id after exactly one fit.
func TestUploadAndTrainAreIdempotent(t *testing.T) {
	sp := testSplit(t)
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(service.NewServer(func(string, ...any) {}).WithRegistry(reg).Handler())
	defer srv.Close()
	ctx := context.Background()
	c := client.New(srv.URL)

	ids := make([]string, 2)
	for i := range ids {
		id, err := c.Upload(ctx, "local", sp.Train)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if ids[0] != ids[1] || !datasetIDPattern.MatchString(ids[0]) {
		t.Fatalf("re-upload ids %q, %q: want one ds-<32 hex> id", ids[0], ids[1])
	}
	renamed := *sp.Train
	renamed.Name = "svc-renamed"
	if id, err := c.Upload(ctx, "local", &renamed); err != nil || id == ids[0] {
		t.Fatalf("renamed upload id %q (err %v), want one different from %q", id, err, ids[0])
	}

	models := make([]string, 2)
	for i := range models {
		id, err := c.Train(ctx, "local", ids[0], dtree, 7)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = id
	}
	if models[0] != models[1] || !modelIDPattern.MatchString(models[0]) {
		t.Fatalf("re-train ids %q, %q: want one m-<32 hex> id", models[0], models[1])
	}
	if fits := reg.Counter(telemetry.ModelCacheMisses).Value(); fits != 1 {
		t.Fatalf("two identical trains ran %d fits, want 1", fits)
	}
	if other, err := c.Train(ctx, "local", ids[0], dtree, 8); err != nil || other == models[0] {
		t.Fatalf("train on another seed returned %q (err %v), want a new id", other, err)
	}
}

// TestWarmScanSkipsUndecodableArtifacts: a store dir holding a v1 artifact
// (counter-era key) and a bit-flipped v2 artifact beside a good one must
// still boot — the warm scan loads the good artifact, skips and counts the
// other two, and the good model then serves without a fit.
func TestWarmScanSkipsUndecodableArtifacts(t *testing.T) {
	sp := testSplit(t)
	dir := t.TempDir()
	_, _, want, _ := serveOnce(t, dir, sp.Train, sp.Test.X)

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := platforms.New("local")
	if err != nil {
		t.Fatal(err)
	}
	fm, err := p.Fit(pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, sp.Train, 1)
	if err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	for _, key := range []string{"local/ds-1/v1", "local/ds-x/bitflip"} {
		b, err := store.EncodeModel(key, fm)
		if err != nil {
			t.Fatal(err)
		}
		if key == "local/ds-1/v1" {
			// A well-formed artifact of the previous format version.
			binary.LittleEndian.PutUint16(b[4:], 1)
			binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
		} else {
			b[len(b)/2] ^= 0x10
		}
		if err := os.WriteFile(st.ModelPath(key), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	reg := telemetry.NewRegistry()
	api := service.NewServer(func(string, ...any) {}).WithRegistry(reg).WithStore(st)
	n, err := api.WarmFromStore()
	if err != nil {
		t.Fatalf("warm scan failed on undecodable artifacts: %v", err)
	}
	if n != 1 || !api.Ready() {
		t.Fatalf("warmed %d models (ready %v), want the 1 good artifact", n, api.Ready())
	}
	if skipped := reg.Counter(telemetry.StoreSkipped).Value(); skipped != 2 {
		t.Fatalf("%s = %d, want 2", telemetry.StoreSkipped, skipped)
	}
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	ctx := context.Background()
	c := client.New(srv.URL)
	dsID, err := c.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	mID, err := c.Train(ctx, "local", dsID, dtree, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Predict(ctx, "local", mID, sp.Test.X)
	if err != nil {
		t.Fatal(err)
	}
	mustSameLabels(t, "warmed", got, want)
	if fits := reg.Counter(telemetry.ModelCacheMisses).Value(); fits != 0 {
		t.Fatalf("warmed model ran %d fits, want 0", fits)
	}
}
