package cluster_test

import (
	"bufio"
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlaasbench/internal/client"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/telemetry"
)

var updateMetricsGolden = flag.Bool("update-metrics", false, "rewrite testdata/metrics_golden.txt")

// TestMetricsExpositionGolden pins the /metrics series a fixed request mix
// leaves on one replica and on the router in front of it: every series'
// name and labels, each counter and gauge value, and each histogram's
// _count. Bucket and _sum lines are left out because they depend on
// timing. The golden is the oracle for any change to how metric handles are
// looked up or created: a series that appears, vanishes or counts
// differently shows up here.
func TestMetricsExpositionGolden(t *testing.T) {
	sp := clusterSplit(t)
	ctx := context.Background()
	reps, _ := newReplicas(t, 1)
	front, _ := newFront(t, reps, 1)

	c := client.New(front.URL)
	c.Telemetry = telemetry.NewRegistry()
	c.MaxRetries = -1
	dsID, err := c.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatal(err)
	}
	mID, err := c.Train(ctx, "local", dsID, pipeline.Config{Classifier: "logreg", Params: map[string]any{}}, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Predict(ctx, "local", mID, sp.Test.X[:1+i]); err != nil {
			t.Fatal(err)
		}
	}
	bin := client.New(front.URL).WithCodec(client.CodecBinary)
	bin.Telemetry = c.Telemetry
	bin.MaxRetries = -1
	for i := 0; i < 2; i++ {
		if _, err := bin.Predict(ctx, "local", mID, sp.Test.X[:4]); err != nil {
			t.Fatal(err)
		}
	}
	// Failures: an unknown model through the router, a bad classifier
	// straight at the replica, and an unknown platform on both.
	if _, err := c.Predict(ctx, "local", "m-"+strings.Repeat("0", 32), sp.Test.X[:1]); err == nil {
		t.Fatal("predict on an unknown model succeeded")
	}
	direct := client.New(reps[0].URL)
	direct.Telemetry = c.Telemetry
	direct.MaxRetries = -1
	if _, err := direct.Train(ctx, "local", dsID, pipeline.Config{Classifier: "no-such-learner", Params: map[string]any{}}, 7); err == nil {
		t.Fatal("train with an unknown classifier succeeded")
	}
	for _, base := range []string{front.URL, reps[0].URL} {
		resp, err := http.Get(base + "/v1/platforms/no-such-platform/surface")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	var got strings.Builder
	for _, src := range []struct{ name, url string }{{"replica", reps[0].URL}, {"router", front.URL}} {
		got.WriteString("# " + src.name + "\n")
		for _, line := range scrapeStableSeries(t, src.url+"/metrics") {
			got.WriteString(strings.ReplaceAll(line, reps[0].URL, "REPLICA") + "\n")
		}
	}

	path := filepath.Join("testdata", "metrics_golden.txt")
	if *updateMetricsGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-metrics to generate): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("/metrics diverged from %s\n--- got\n%s--- want\n%s", path, got.String(), want)
	}
}

// scrapeStableSeries fetches a Prometheus exposition and keeps the sample
// lines that do not depend on timing: counters, gauges and histogram
// _count, in exposition order.
func scrapeStableSeries(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if strings.HasSuffix(name, "_bucket") || strings.HasSuffix(name, "_sum") {
			continue
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
