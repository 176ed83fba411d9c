// Command mlaas-loadgen drives the predictions endpoint with closed-loop
// concurrent clients and reports latency quantiles and throughput.
//
// Usage:
//
//	mlaas-loadgen [-clients 4] [-batch 64] [-shards 0] [-duration 3s]
//	              [-platform local] [-classifier mlp] [-feat scaler:standard]
//	              [-codec json|binary] [-seed 1] [-cache 128]
//	              [-url http://host:8080] [-out BENCH.json]
//	              [-perf-dir perf/results] [-perf-label loadgen]
//
// -codec binary sends predict bodies as internal/wire binary frames instead
// of JSON (and receives binary label frames back) — same requests, same
// labels, less encode/decode work per request. Reports record the codec;
// perf history series keep their names so codec changes show up as steps in
// the same trajectory.
//
// -perf-dir additionally appends the run to the committed perf history in
// the same record schema mlaas-perf writes, so loadgen throughput and
// latency trend in `mlaas-perf report -kind loadgen` alongside the
// committed history.
//
// -batch sets the exact instance count per predict request (test rows are
// tiled when the request is larger than the test set), exercising the
// server's row-sharded batch forward path; reports include per-row latency
// alongside per-request. -shards bounds the in-process servers' forward
// fan-out (0 = one shard per CPU, 1 = serial).
//
// With -url empty (the default) the generator runs fully in-process: it
// starts two httptest servers — one with the model cache disabled (the
// pre-fit-once retrain-per-request behaviour) and one with the fit-once
// cache — runs the identical workload against both, and reports the
// speedup. This is how BENCH_PR3.json is produced; see EXPERIMENTS.md.
//
// With -url set it runs a single pass against the live server (whose
// cache policy is whatever the server was started with).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mlaasbench/internal/client"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/perf"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/service"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
)

// PassReport summarises one closed-loop pass.
type PassReport struct {
	Name        string  `json:"name"` // "refit", "forward", or "remote"
	Requests    int     `json:"requests"`
	Errors      int     `json:"errors"`
	DurationSec float64 `json:"duration_sec"`
	ReqPerSec   float64 `json:"req_per_sec"`
	InstPerSec  float64 `json:"instances_per_sec"`
	MeanMs      float64 `json:"mean_ms"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	// RowMeanMs / RowP95Ms are the per-request latencies divided by the
	// batch size — the cost of one prediction inside a batched request.
	RowMeanMs float64 `json:"row_mean_ms"`
	RowP95Ms  float64 `json:"row_p95_ms"`
}

// Report is the JSON artifact (e.g. BENCH_PR3.json).
type Report struct {
	Platform   string       `json:"platform"`
	Classifier string       `json:"classifier"`
	Config     string       `json:"config"`
	Codec      string       `json:"codec"`
	DatasetN   int          `json:"dataset_n"`
	DatasetD   int          `json:"dataset_d"`
	Clients    int          `json:"clients"`
	Batch      int          `json:"batch"`
	CacheSize  int          `json:"cache_models"`
	Seed       uint64       `json:"seed"`
	Passes     []PassReport `json:"passes"`
	// SpeedupRPS is forward req/s over refit req/s (0 for remote runs).
	SpeedupRPS float64 `json:"speedup_rps,omitempty"`
}

func main() {
	var (
		url        = flag.String("url", "", "target server; empty runs in-process refit-vs-forward comparison")
		platform   = flag.String("platform", "local", "platform name")
		classifier = flag.String("classifier", "mlp", "classifier name")
		feat       = flag.String("feat", "", `FEAT option as kind[:name], e.g. "scaler:standard"; empty for none`)
		clients    = flag.Int("clients", 4, "concurrent closed-loop clients")
		batch      = flag.Int("batch", 64, "instances per predict request (test rows tile to reach it)")
		shards     = flag.Int("shards", 0, "predict shards for in-process servers (0 = one per CPU, 1 = serial)")
		duration   = flag.Duration("duration", 3*time.Second, "measured duration per pass")
		seed       = flag.Uint64("seed", 1, "training seed")
		cache      = flag.Int("cache", service.DefaultModelCacheModels, "model-cache size for the forward pass (in-process mode)")
		codecName  = flag.String("codec", "json", "predict body codec: json or binary (the internal/wire frame format)")
		out        = flag.String("out", "", "write the JSON report here (always printed to stdout)")
		perfDir    = flag.String("perf-dir", "", "also append this run as a perf history record (same schema as mlaas-perf run) into this directory, e.g. perf/results")
		perfLabel  = flag.String("perf-label", "loadgen", "label stamped on the perf history record")
		traceOut   = flag.String("trace-out", "", "export every pass's retained traces as JSONL here (analyse with mlaas-trace)")
		telSummary = flag.Bool("telemetry", false, "print each pass's telemetry summary to stderr")
	)
	flag.Parse()

	codec := client.Codec(*codecName)
	if codec != client.CodecJSON && codec != client.CodecBinary {
		log.Fatalf("loadgen: bad -codec %q: want json or binary", *codecName)
	}

	cfg := pipeline.Config{
		Feat:       parseFeat(*feat),
		Classifier: *classifier,
		Params:     map[string]any{},
	}
	// A mid-size separable problem: big enough that predicts carry real
	// batches, small enough that the refit pass completes requests.
	ds := synth.GenerateClean(synth.Spec{
		Name: "loadgen", Gen: synth.GenLinear, N: 200, D: 6, Noise: 0.2,
	}, synth.Quick, *seed)
	sp := ds.StratifiedSplit(0.7, rng.New(7))

	rep := Report{
		Platform:   *platform,
		Classifier: *classifier,
		Config:     cfg.String(),
		Codec:      string(codec),
		DatasetN:   ds.N(),
		DatasetD:   ds.D(),
		Clients:    *clients,
		Batch:      *batch,
		CacheSize:  *cache,
		Seed:       *seed,
	}

	// Each pass records into its own registry — shared by the pass's server
	// (in-process mode) and every closed-loop client — so cache-off and
	// fit-once telemetry never mix, and a pass's exported traces contain
	// both sides of each request stitch.
	var passRegs []*telemetry.Registry
	if *url != "" {
		reg := telemetry.NewRegistry()
		pass, err := runPass("remote", *url, *platform, cfg, sp, *seed, *clients, *batch, *duration, codec, reg)
		if err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		rep.Passes = append(rep.Passes, pass)
		passRegs = append(passRegs, reg)
	} else {
		// Two in-process passes over identical workloads. "refit" is the
		// pre-fit-once serving path (cache disabled, every predict
		// retrains); "forward" serves the resident fitted model.
		for _, arm := range []struct {
			name  string
			cache int
		}{{"refit", 0}, {"forward", *cache}} {
			reg := telemetry.NewRegistry()
			srv := httptest.NewServer(service.NewServer(func(string, ...any) {}).
				WithRegistry(reg).
				WithModelCache(arm.cache).
				WithPredictShards(*shards).
				Handler())
			pass, err := runPass(arm.name, srv.URL, *platform, cfg, sp, *seed, *clients, *batch, *duration, codec, reg)
			srv.Close()
			if err != nil {
				log.Fatalf("loadgen: %s pass: %v", arm.name, err)
			}
			rep.Passes = append(rep.Passes, pass)
			passRegs = append(passRegs, reg)
		}
		if rep.Passes[0].ReqPerSec > 0 {
			rep.SpeedupRPS = rep.Passes[1].ReqPerSec / rep.Passes[0].ReqPerSec
		}
	}
	if *telSummary {
		for i, reg := range passRegs {
			fmt.Fprintf(os.Stderr, "--- %s pass telemetry ---\n", rep.Passes[i].Name)
			telemetry.WriteSummary(os.Stderr, reg)
		}
	}
	if *traceOut != "" {
		if err := exportTraces(*traceOut, rep.Passes, passRegs); err != nil {
			log.Fatalf("loadgen: %v", err)
		}
		fmt.Printf("traces written to %s\n", *traceOut)
	}

	printSummary(rep)
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatalf("loadgen: encode report: %v", err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			log.Fatalf("loadgen: write %s: %v", *out, err)
		}
		fmt.Printf("report written to %s\n", *out)
	}
	if *perfDir != "" {
		path, err := perfRecord(rep, *perfLabel).WriteFile(*perfDir)
		if err != nil {
			log.Fatalf("loadgen: perf record: %v", err)
		}
		fmt.Printf("perf record written to %s\n", path)
	}
}

// perfRecord reshapes the report into the append-only perf/results schema.
// perf.LoadgenResults names the series, so live runs extend the same
// (name, unit) series the committed pr3 record started.
func perfRecord(rep Report, label string) *perf.Record {
	rec := &perf.Record{
		Schema: perf.SchemaVersion,
		Kind:   perf.KindLoadgen,
		Label:  label,
		Time:   time.Now().UTC(),
		Env:    perf.CurrentEnv(),
		Source: "mlaas-loadgen " + strings.Join(os.Args[1:], " "),
		Notes: fmt.Sprintf("closed-loop loadgen: %s %s, %d clients, batch %d, codec %s",
			rep.Platform, rep.Config, rep.Clients, rep.Batch, rep.Codec),
	}
	for _, p := range rep.Passes {
		rec.Results = append(rec.Results,
			perf.LoadgenResults("loadgen/"+p.Name, p.ReqPerSec, p.InstPerSec, p.MeanMs, p.P50Ms, p.P95Ms, p.P99Ms)...)
	}
	return rec
}

// exportTraces writes every pass's retained traces to one JSONL file, each
// stamped with a "pass" attr on its root span so mlaas-trace can split them.
func exportTraces(path string, passes []PassReport, regs []*telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for i, reg := range regs {
		traces := reg.Traces().Snapshot()
		for j := range traces {
			if traces[j].Root.Attrs == nil {
				traces[j].Root.Attrs = map[string]string{}
			}
			traces[j].Root.Attrs["pass"] = passes[i].Name
		}
		if err := telemetry.WriteTraceJSONL(f, traces); err != nil {
			_ = f.Close()
			return err
		}
	}
	return f.Close()
}

// runPass uploads + trains once, then runs closed-loop predict clients
// against the model until the deadline. Every client records into reg, the
// same registry the pass's in-process server uses.
func runPass(name, url, platform string, cfg pipeline.Config, sp dataset.Split, seed uint64, clients, batch int, d time.Duration, codec client.Codec, reg *telemetry.Registry) (PassReport, error) {
	ctx := context.Background()
	c := client.New(url).WithCodec(codec)
	c.Telemetry = reg
	dsID, err := c.Upload(ctx, platform, sp.Train)
	if err != nil {
		return PassReport{}, fmt.Errorf("upload: %w", err)
	}
	modelID, err := c.Train(ctx, platform, dsID, cfg, seed)
	if err != nil {
		return PassReport{}, fmt.Errorf("train: %w", err)
	}
	// One warm-up predict per pass keeps connection setup and (for the
	// forward arm) the initial fit out of the measured window.
	instances := tileInstances(sp.Test.X, batch)
	if _, err := c.Predict(ctx, platform, modelID, instances); err != nil {
		return PassReport{}, fmt.Errorf("warm-up predict: %w", err)
	}

	var (
		mu        sync.Mutex
		latencies []float64 // ms
		errs      int
	)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(url).WithCodec(codec)
			cl.Telemetry = reg
			var local []float64
			localErrs := 0
			for time.Now().Before(deadline) {
				t0 := time.Now()
				_, err := cl.Predict(ctx, platform, modelID, instances)
				if err != nil {
					localErrs++
					continue
				}
				local = append(local, float64(time.Since(t0).Microseconds())/1000)
			}
			mu.Lock()
			latencies = append(latencies, local...)
			errs += localErrs
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	n := len(latencies)
	if n == 0 {
		return PassReport{}, fmt.Errorf("no successful requests in %s (errors: %d)", d, errs)
	}
	sort.Float64s(latencies)
	var sum float64
	for _, v := range latencies {
		sum += v
	}
	rows := float64(len(instances))
	return PassReport{
		Name:        name,
		Requests:    n,
		Errors:      errs,
		DurationSec: elapsed,
		ReqPerSec:   float64(n) / elapsed,
		InstPerSec:  float64(n*len(instances)) / elapsed,
		MeanMs:      sum / float64(n),
		P50Ms:       quantile(latencies, 0.50),
		P95Ms:       quantile(latencies, 0.95),
		P99Ms:       quantile(latencies, 0.99),
		RowMeanMs:   sum / float64(n) / rows,
		RowP95Ms:    quantile(latencies, 0.95) / rows,
	}, nil
}

// tileInstances returns exactly batch query rows, repeating the test rows
// cyclically when the requested batch outgrows the test set — so -batch
// always means what it says and large batches genuinely exercise the
// sharded forward path.
func tileInstances(rows [][]float64, batch int) [][]float64 {
	if batch < 1 {
		batch = 1
	}
	if batch <= len(rows) {
		return rows[:batch]
	}
	out := make([][]float64, batch)
	for i := range out {
		out[i] = rows[i%len(rows)]
	}
	return out
}

// quantile reads the q-th quantile from an ascending-sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// parseFeat turns "kind" or "kind:name" into a pipeline.Feat.
func parseFeat(s string) pipeline.Feat {
	if s == "" || s == "none" {
		return pipeline.Feat{Kind: "none"}
	}
	kind, name, _ := strings.Cut(s, ":")
	return pipeline.Feat{Kind: kind, Name: name}
}

func printSummary(rep Report) {
	fmt.Printf("workload: %s %s on %dx%d points, %d clients, batch %d, codec %s\n",
		rep.Platform, rep.Config, rep.DatasetN, rep.DatasetD, rep.Clients, rep.Batch, rep.Codec)
	for _, p := range rep.Passes {
		fmt.Printf("  %-8s %6d reqs (%d errs) in %5.2fs  %8.1f req/s  p50 %.2fms  p95 %.2fms  p99 %.2fms  row mean %.4fms  row p95 %.4fms\n",
			p.Name, p.Requests, p.Errors, p.DurationSec, p.ReqPerSec, p.P50Ms, p.P95Ms, p.P99Ms, p.RowMeanMs, p.RowP95Ms)
	}
	if rep.SpeedupRPS > 0 {
		fmt.Printf("  forward vs refit speedup: %.1fx req/s\n", rep.SpeedupRPS)
	}
}
