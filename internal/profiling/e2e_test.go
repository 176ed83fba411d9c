// End-to-end smoke for the tentpole: real HTTP traffic against a real
// service server, a deliberately tight SLO, and the watchdog turning the
// breach into an on-disk bundle whose sidecar points back at retained
// traces — the metrics → traces → profiles triangle closed in one test.
// Lives in the external test package so it can import internal/service
// (which itself imports profiling for the /debug/profiles surface).
package profiling_test

import (
	"context"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mlaasbench/internal/client"
	"mlaasbench/internal/linalg"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/profiling"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/service"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
)

// startLoadedService boots an in-process server on its own registry,
// trains one model, and returns a client ready to predict against it.
// testing.TB so the overhead benchmarks share the exact serving path.
func startLoadedService(t testing.TB) (*telemetry.Registry, *client.Client, string, [][]float64, func()) {
	t.Helper()
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(service.NewServer(func(string, ...any) {}).WithRegistry(reg).Handler())
	ds := synth.GenerateClean(synth.Spec{
		Name: "e2e", Gen: synth.GenLinear, N: 120, D: 4, Noise: 0.2,
	}, synth.Quick, 1)
	sp := ds.StratifiedSplit(0.7, rng.New(7))
	c := client.New(srv.URL)
	c.Telemetry = reg
	dsID, err := c.Upload(ctx, "local", sp.Train)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	cfg := pipeline.Config{Classifier: "logreg", Params: map[string]any{}}
	modelID, err := c.Train(ctx, "local", dsID, cfg, 1)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return reg, c, modelID, sp.Test.X[:8], srv.Close
}

// TestSLOBreachCapturesBundleWithTraces is the ISSUE's first e2e gate:
// traffic + an impossible latency objective must produce at least one
// trigger-tagged bundle whose sidecar references at least one trace ID
// that really is in the registry's retained-trace buffer.
func TestSLOBreachCapturesBundleWithTraces(t *testing.T) {
	reg, c, modelID, instances, closeSrv := startLoadedService(t)
	defer closeSrv()
	ctx := context.Background()

	predict := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := c.Predict(ctx, "local", modelID, instances); err != nil {
				t.Fatalf("predict: %v", err)
			}
		}
	}
	predict(10)

	p, err := profiling.New(profiling.Config{
		Dir:         t.TempDir(),
		CPUDuration: 100 * time.Millisecond,
		Registry:    reg,
	})
	if err != nil {
		t.Fatalf("profiler: %v", err)
	}
	// No request can finish in a nanosecond, so every predict burns
	// budget and the very first full window breaches.
	wd, err := profiling.NewWatchdog(profiling.WatchdogConfig{
		Registry: reg,
		SLOs: []profiling.SLO{{
			Name:             "predict",
			Route:            "predict",
			LatencyObjective: 1e-9,
			LatencyTarget:    0.999,
			Window:           time.Minute,
			Cooldown:         time.Hour,
		}},
	})
	if err != nil {
		t.Fatalf("watchdog: %v", err)
	}
	wd.Watch(p)

	t0 := time.Now()
	wd.Tick(t0) // baseline snapshot
	predict(10)
	wd.Tick(t0.Add(10 * time.Second)) // delta is all-bad -> breach -> capture

	if n := reg.Counter(telemetry.ProfilingTriggersTotal, "slo", "predict").Value(); n != 1 {
		t.Fatalf("triggers=%d, want 1", n)
	}
	// The capture runs in a watchdog-owned goroutine; poll the store.
	var bundle profiling.Meta
	deadline := time.Now().Add(15 * time.Second)
	for {
		metas, err := p.Store().List()
		if err != nil {
			t.Fatalf("list: %v", err)
		}
		if len(metas) > 0 {
			bundle = metas[len(metas)-1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no bundle appeared after the breach")
		}
		time.Sleep(20 * time.Millisecond)
	}

	if bundle.Reason != profiling.ReasonTrigger || bundle.Tag != "slo-predict" {
		t.Errorf("bundle reason/tag = %s/%s, want trigger/slo-predict", bundle.Reason, bundle.Tag)
	}
	if bundle.Attrs["slo"] != "predict" || bundle.Attrs["latency_burn_rate"] == "" {
		t.Errorf("trigger attrs missing SLO context: %v", bundle.Attrs)
	}
	if len(bundle.SLO) == 0 || !bundle.SLO[0].Breached {
		t.Errorf("sidecar SLO status not breached: %+v", bundle.SLO)
	}
	if len(bundle.SlowTraces) == 0 {
		t.Fatal("sidecar references no retained traces")
	}
	retained := map[string]bool{}
	for _, s := range reg.Traces().Summaries() {
		retained[s.TraceID] = true
	}
	for _, ref := range bundle.SlowTraces {
		if !retained[ref.TraceID] {
			t.Errorf("sidecar trace %s not in the registry's trace buffer", ref.TraceID)
		}
	}
	// go tool pprof must read every recorded profile (CPU is left out only
	// when the environment already held the process-wide CPU profile, e.g.
	// go test -cpuprofile).
	for kind := range bundle.Profiles {
		path, err := p.Store().ProfilePath(bundle.ID, kind)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := profiling.GoToolPprof(t, "-raw", path); err != nil {
			t.Errorf("go tool pprof -raw %s: %v\n%s", kind, err, out)
		}
	}
}

// TestHotSymbolSurfacesInDiff pins the hotspot-diff workflow: an idle CPU
// capture diffed against one taken while the linalg GEMM kernel is being
// hammered must put the kernel in the top-10 flat deltas — what a
// human runs as `go tool pprof -top -diff_base idle/cpu.pprof
// loaded/cpu.pprof`.
func TestHotSymbolSurfacesInDiff(t *testing.T) {
	p, err := profiling.New(profiling.Config{
		Dir:         t.TempDir(),
		CPUDuration: 300 * time.Millisecond,
		Registry:    telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("profiler: %v", err)
	}

	idle, err := p.CaptureNow("idle", profiling.ReasonManual, nil)
	if err != nil {
		t.Fatalf("idle capture: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			n := 64
			a, b, dst := linalg.NewMatrix(n, n), linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
			for i := range a.Data {
				a.Data[i] = float64((i+seed)%7) + 0.1
				b.Data[i] = float64((i+2*seed)%5) + 0.2
			}
			for {
				select {
				case <-stop:
					return
				default:
					linalg.MulInto(dst, a, b)
				}
			}
		}(w)
	}
	loaded, err := p.CaptureNow("loaded", profiling.ReasonManual, nil)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("loaded capture: %v", err)
	}
	if idle.Attrs["cpu_skipped"] != "" || loaded.Attrs["cpu_skipped"] != "" {
		t.Skip("CPU profiling unavailable (another profile active in this process)")
	}

	base, err := p.Store().ProfilePath(idle.ID, "cpu")
	if err != nil {
		t.Fatalf("idle cpu profile: %v", err)
	}
	hot, err := p.Store().ProfilePath(loaded.ID, "cpu")
	if err != nil {
		t.Fatalf("loaded cpu profile: %v", err)
	}
	out, err := profiling.GoToolPprof(t, "-top", "-nodecount", "10", "-diff_base", base, hot)
	if err != nil {
		t.Fatalf("go tool pprof -diff_base: %v\n%s", err, out)
	}
	// -top rows are "flat flat% sum% cum cum% symbol", flat first.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 6 || !strings.Contains(fields[5], "linalg.MulInto") {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimRight(fields[0], "abcdefghijklmnopqrstuvwxyzµ"), 64)
		if err != nil || flat <= 0 {
			t.Errorf("GEMM kernel flat delta not positive: %q", line)
		}
		return
	}
	t.Fatalf("GEMM kernel not in the top-10 flat deltas:\n%s", out)
}
