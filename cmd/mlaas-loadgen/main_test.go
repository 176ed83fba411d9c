package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mlaasbench/internal/client"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/service"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
)

// TestPassTelemetryIsolation runs the two in-process arms the way main does
// and checks each pass's telemetry lands only in its own registry: the
// refit arm must see only refit-path predicts, the forward arm only
// forward-path predicts, and the process-wide default registry must stay
// untouched by either.
func TestPassTelemetryIsolation(t *testing.T) {
	cfg := pipeline.Config{Feat: parseFeat(""), Classifier: "logreg", Params: map[string]any{}}
	ds := synth.GenerateClean(synth.Spec{
		Name: "loadgen", Gen: synth.GenLinear, N: 120, D: 4, Noise: 0.2,
	}, synth.Quick, 1)
	sp := ds.StratifiedSplit(0.7, rng.New(7))

	regs := map[string]*telemetry.Registry{}
	for _, arm := range []struct {
		name  string
		cache int
	}{{"refit", 0}, {"forward", 32}} {
		reg := telemetry.NewRegistry()
		srv := httptest.NewServer(service.NewServer(func(string, ...any) {}).
			WithRegistry(reg).
			WithModelCache(arm.cache).
			Handler())
		pass, err := runPass(arm.name, srv.URL, "local", cfg, sp, 1, 2, 16, 300*time.Millisecond, client.CodecJSON, reg)
		srv.Close()
		if err != nil {
			t.Fatalf("%s pass: %v", arm.name, err)
		}
		if pass.Requests == 0 {
			t.Fatalf("%s pass made no requests", arm.name)
		}
		regs[arm.name] = reg
	}

	refits := func(reg *telemetry.Registry, path string) uint64 {
		return reg.Histogram(telemetry.PredictPathHistogram, "path", path).Count()
	}
	if n := refits(regs["refit"], "refit"); n == 0 {
		t.Error("refit arm recorded no refit-path predicts")
	}
	if n := refits(regs["refit"], "forward"); n != 0 {
		t.Errorf("refit arm recorded %d forward-path predicts; cache should be off", n)
	}
	if n := refits(regs["forward"], "forward"); n == 0 {
		t.Error("forward arm recorded no forward-path predicts")
	}
	// Both sides of the stitch live in the pass registry: client rpc
	// metrics and retained traces rooted at the client's rpc span.
	for name, reg := range regs {
		if v := reg.Counter("mlaas_client_requests_total", "endpoint", "predict").Value(); v == 0 {
			t.Errorf("%s arm: client metrics did not land in the pass registry", name)
		}
		if reg.Traces().Len() == 0 {
			t.Errorf("%s arm retained no traces", name)
		}
	}
	// Nothing leaked into the process-wide default registry.
	if v := telemetry.Default().Counter("mlaas_client_requests_total", "endpoint", "predict").Value(); v != 0 {
		t.Errorf("default registry saw %d client predicts; passes must be isolated", v)
	}
	if n := telemetry.Default().Histogram(telemetry.PredictPathHistogram, "path", "refit").Count(); n != 0 {
		t.Errorf("default registry saw %d refit predicts; passes must be isolated", n)
	}

	// exportTraces writes a JSONL that mlaas-trace can read back.
	out := filepath.Join(t.TempDir(), "traces.jsonl")
	passes := []PassReport{{Name: "refit"}, {Name: "forward"}}
	if err := exportTraces(out, passes, []*telemetry.Registry{regs["refit"], regs["forward"]}); err != nil {
		t.Fatalf("export: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatalf("open export: %v", err)
	}
	defer f.Close()
	traces, err := telemetry.ReadTraceJSONL(f)
	if err != nil {
		t.Fatalf("read export: %v", err)
	}
	if len(traces) == 0 {
		t.Fatal("export contains no traces")
	}
	seenPass := map[string]bool{}
	for _, td := range traces {
		seenPass[td.Root.Attrs["pass"]] = true
	}
	if !seenPass["refit"] || !seenPass["forward"] {
		t.Errorf("export lacks a pass: %v", seenPass)
	}
}
