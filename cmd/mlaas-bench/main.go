// Command mlaas-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	mlaas-bench [flags] <experiment> [experiment...]
//	mlaas-bench all                       # everything
//
// Experiments: fig3, table2, fig4, table3, fig5, table4, fig6, fig7, fig8,
// fig9, fig10, fig11, fig12, fig13, table5, table6, fig14, infer — plus the
// extensions timecost (training-time analysis), domains (per-domain
// breakdown), auc (metric study), robust (label-noise robustness) and csv
// (raw measurement export).
//
// Flags:
//
//	-profile quick|full   corpus scale (default quick)
//	-datasets N           limit the corpus to its first N datasets (0 = all 119)
//	-seed S               measurement seed
//	-workers N            sweep worker pool size (default: all CPUs; 1 = serial).
//	                      Any worker count produces byte-identical measurements.
//	-shards N             row shards per predict stage (default 1 = serial;
//	                      0 = one per CPU). The pool already saturates the
//	                      cores, so raise this only for low-config sweeps
//	                      with huge test sets. Predictions are byte-identical
//	                      at any shard count.
//	-cache FILE           persist/reuse the sweep's raw measurements
//	-fleet URLS           shard the sweep across a fleet of mlaas-server
//	                      replicas (comma-separated base URLs); each
//	                      (platform, dataset) unit runs on its consistent-hash
//	                      owner and results merge byte-identically to a
//	                      local sweep
//	-v                    progress logging
//	-progress             repaint a live done/total/rate/ETA line on stderr
//	                      while the sweep runs (off when -v is set)
//	-progress-addr :8090  serve the same snapshot as JSON at /progress
//	-trace-out FILE       export the run's retained traces as JSONL
//	                      (analyse with mlaas-trace)
//	-telemetry            print the end-of-run telemetry summary to stderr
//	                      (per-stage p50/p95/p99 latency, counter totals;
//	                      default true)
//
// One measurement sweep is shared across all requested experiments, so
// "mlaas-bench all" costs one sweep plus the probe analyses.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"time"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/core"
	"mlaasbench/internal/linalg"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/profiling"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
)

var sweepExperiments = map[string]bool{
	"table2": true, "fig4": true, "table3": true, "fig5": true,
	"table4": true, "fig6": true, "fig7": true, "fig8": true,
	"fig11": true, "fig12": true, "table6": true, "fig14": true, "infer": true,
	"timecost": true, "csv": true, "domains": true,
}

func main() {
	profileName := flag.String("profile", "quick", "corpus profile: quick or full")
	maxDatasets := flag.Int("datasets", 0, "limit corpus size (0 = all 119)")
	seed := flag.Uint64("seed", synth.CorpusSeed, "measurement seed")
	workers := flag.Int("workers", runtime.NumCPU(), "sweep worker pool size (1 = serial)")
	shards := flag.Int("shards", 1, "row shards per predict stage (1 = serial, 0 = one per CPU)")
	verbose := flag.Bool("v", false, "progress logging")
	cache := flag.String("cache", "", "sweep cache file: load if present, else run and save")
	telemetrySummary := flag.Bool("telemetry", true, "print telemetry summary (stage latencies, counters) to stderr at exit")
	progress := flag.Bool("progress", false, "repaint a live sweep progress line on stderr (ignored with -v)")
	progressAddr := flag.String("progress-addr", "", "serve sweep progress as JSON at this address under /progress")
	traceOut := flag.String("trace-out", "", "export retained traces as JSONL here (analyse with mlaas-trace)")
	fleet := flag.String("fleet", "",
		"comma-separated mlaas-server replica URLs: shard the sweep's (platform, dataset) units "+
			"across the fleet by consistent hash instead of measuring in-process. Results are "+
			"byte-identical to a local sweep at any replica count (modulo wall-clock micros).")
	profileDir := flag.String("profile-dir", "",
		"capture continuous-profiler bundles into this directory: periodic captures during the sweep plus one tagged end-of-run bundle (read with go tool pprof -top <dir>/<bundle>/cpu.pprof)")
	profileInterval := flag.Duration("profile-interval", 30*time.Second, "period between periodic captures while the run is in flight")
	flag.Parse()

	// Kernel durations land in the default registry so the -telemetry
	// summary shows where GEMM/distance time goes across the sweep.
	linalg.SetKernelHook(func(kernel string, seconds float64) {
		telemetry.Default().Histogram(telemetry.KernelHistogram, "kernel", kernel).Observe(seconds)
	})

	// The profiler shares the default registry with everything above, so
	// its sidecars link the slowest sweep traces and its counters land in
	// the -telemetry summary.
	var prof *profiling.Profiler
	if *profileDir != "" {
		var err error
		prof, err = profiling.New(profiling.Config{Dir: *profileDir, Interval: *profileInterval})
		if err != nil {
			fatal(err)
		}
		prof.Start()
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: mlaas-bench [flags] <experiment>... | all")
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = []string{"fig3", "table2", "fig4", "table3", "fig5", "table4",
			"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
			"table5", "infer", "table6", "fig14", "timecost", "domains"}
	}

	profile, err := synth.ProfileByName(*profileName)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	needsSweep := false
	for _, a := range args {
		if sweepExperiments[a] {
			needsSweep = true
		}
	}
	var sw *core.Sweep
	if needsSweep {
		tracker := core.NewProgressTracker()
		opts := core.Options{
			Profile:          profile,
			Seed:             *seed,
			MaxDatasets:      *maxDatasets,
			StorePredictions: true,
			Workers:          *workers,
			PredictShards:    *shards,
			Tracker:          tracker,
		}
		if *verbose {
			opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, line) }
		}
		if *progressAddr != "" {
			mux := http.NewServeMux()
			mux.Handle("/progress", tracker.Handler())
			go func() {
				if err := http.ListenAndServe(*progressAddr, mux); err != nil {
					fmt.Fprintf(os.Stderr, "mlaas-bench: progress server: %v\n", err)
				}
			}()
		}
		// The live line repaints in place twice a second; -v's per-unit
		// lines would shred it, so -v wins when both are set.
		var stopLine func()
		if *progress && !*verbose {
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				tick := time.NewTicker(500 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-tick.C:
						fmt.Fprintf(os.Stderr, "\r\033[K%s", tracker.Snapshot().Line())
					case <-done:
						fmt.Fprintf(os.Stderr, "\r\033[K%s\n", tracker.Snapshot().Line())
						return
					}
				}
			}()
			stopLine = func() { close(done); wg.Wait() }
		}
		if *fleet != "" {
			var endpoints []string
			for _, u := range strings.Split(*fleet, ",") {
				if u = strings.TrimSpace(u); u != "" {
					endpoints = append(endpoints, u)
				}
			}
			fmt.Fprintf(os.Stderr, "running sharded measurement sweep (%d datasets, profile %s, %d workers, %d replicas)...\n",
				datasetCount(*maxDatasets), profile.Name, *workers, len(endpoints))
			sw, err = core.LoadOrRunSweepFleet(ctx, *cache, opts, endpoints)
		} else {
			fmt.Fprintf(os.Stderr, "running measurement sweep (%d datasets, profile %s, %d workers)...\n",
				datasetCount(*maxDatasets), profile.Name, *workers)
			sw, err = core.LoadOrRunSweep(ctx, *cache, opts)
		}
		if stopLine != nil {
			stopLine()
		}
		if err != nil {
			fatal(err)
		}
	}

	var inferRep *core.InferenceReport
	inference := func() *core.InferenceReport {
		if inferRep == nil {
			rep, err := sw.InferFamilies(nil)
			if err != nil {
				fatal(err)
			}
			inferRep = rep
		}
		return inferRep
	}

	out := os.Stdout
	for _, exp := range args {
		fmt.Fprintln(out, strings.Repeat("=", 72))
		switch exp {
		case "fig3":
			core.WriteFig3(out, profile, *seed)
		case "table2":
			sw.WriteTable2(out)
		case "fig4":
			sw.WriteFig4(out)
		case "table3":
			sw.WriteTable3(out)
		case "fig5":
			sw.WriteFig5(out)
		case "table4":
			sw.WriteTable4(out)
		case "fig6":
			sw.WriteFig6(out)
		case "fig7":
			sw.WriteFig7(out)
		case "fig8":
			sw.WriteFig8(out)
		case "fig9":
			writeFig9(out, profile, *seed)
		case "fig10", "fig13":
			writeBoundaries(out, profile, *seed, exp)
		case "fig11":
			sw.WriteFamilyCDFs(out, "CIRCLE")
			sw.WriteFamilyCDFs(out, "LINEAR")
		case "fig12", "infer":
			core.WriteInference(out, inference())
		case "table5":
			writeTable5(out)
		case "timecost":
			sw.WriteTimeCost(out)
		case "domains":
			sw.WriteDomainBreakdown(out)
		case "auc":
			rows, err := core.AUCStudy(profile, *seed, *maxDatasets)
			if err != nil {
				fatal(err)
			}
			core.WriteAUCStudy(out, rows)
		case "robust":
			pts, err := core.NoiseRobustness(profile, *seed, nil)
			if err != nil {
				fatal(err)
			}
			core.WriteNoiseRobustness(out, pts)
		case "csv":
			if err := sw.WriteMeasurementsCSV(out); err != nil {
				fatal(err)
			}
		case "table6", "fig14":
			for _, p := range []string{"google", "abm"} {
				cmp, err := sw.CompareNaive(p, inference())
				if err != nil {
					fatal(err)
				}
				switchBest, err := sw.SwitchIsBestCount(p, inference())
				if err != nil {
					fatal(err)
				}
				core.WriteNaive(out, cmp, switchBest)
			}
		default:
			fatal(fmt.Errorf("unknown experiment %q", exp))
		}
	}

	// Where the run's time went: per-stage latency quantiles (upload,
	// featsel, preprocess, fit, predict, score, ...), retry totals and the
	// rest of the default registry, on stderr so experiment output stays
	// pipeable.
	if *telemetrySummary {
		fmt.Fprintln(os.Stderr, strings.Repeat("=", 72))
		// Stamp the environment first so any number below is attributable
		// to the toolchain and machine that produced it.
		fmt.Fprintf(os.Stderr, "env: %s\n", telemetry.Fingerprint())
		telemetry.SetBuildInfo(telemetry.Default())
		telemetry.WriteDefaultSummary(os.Stderr)
	}
	if *traceOut != "" {
		if err := writeTraces(*traceOut); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "traces written to %s\n", *traceOut)
	}
	if prof != nil {
		if _, err := prof.CaptureNow("end-of-run", profiling.ReasonManual, nil); err != nil {
			fmt.Fprintf(os.Stderr, "mlaas-bench: end-of-run profile capture: %v\n", err)
		}
		prof.Stop()
		fmt.Fprintf(os.Stderr, "profile bundles in %s (read with: go tool pprof -top %s/<bundle>/cpu.pprof)\n", *profileDir, *profileDir)
	}
}

// writeTraces exports the default registry's retained traces as JSONL.
func writeTraces(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteTraceJSONL(f, telemetry.Default().Traces().Snapshot()); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

func datasetCount(limit int) int {
	if limit > 0 && limit < 119 {
		return limit
	}
	return 119
}

// writeFig9 renders the CIRCLE and LINEAR probe datasets as ASCII scatter
// plots (the paper's Figure 9 visualizations).
func writeFig9(out *os.File, profile synth.Profile, seed uint64) {
	circle, linear := core.ProbeDatasets(profile, seed)
	fmt.Fprintln(out, "Figure 9(a): CIRCLE — samples by class")
	fmt.Fprint(out, scatterASCII(circle.X, circle.Y, 30))
	fmt.Fprintln(out, "Figure 9(b): LINEAR — samples by class")
	fmt.Fprint(out, scatterASCII(linear.X, linear.Y, 30))
}

// scatterASCII rasterizes 2-D samples: '.' class 0, '#' class 1, ' ' empty.
func scatterASCII(x [][]float64, y []int, steps int) string {
	minX, maxX := x[0][0], x[0][0]
	minY, maxY := x[0][1], x[0][1]
	for _, row := range x {
		if row[0] < minX {
			minX = row[0]
		}
		if row[0] > maxX {
			maxX = row[0]
		}
		if row[1] < minY {
			minY = row[1]
		}
		if row[1] > maxY {
			maxY = row[1]
		}
	}
	grid := make([][]byte, steps)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", steps))
	}
	for i, row := range x {
		cx := int(float64(steps-1) * (row[0] - minX) / (maxX - minX + 1e-12))
		cy := int(float64(steps-1) * (row[1] - minY) / (maxY - minY + 1e-12))
		ch := byte('.')
		if y[i] == 1 {
			ch = '#'
		}
		grid[steps-1-cy][cx] = ch
	}
	var sb strings.Builder
	for _, line := range grid {
		sb.Write(line)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// writeBoundaries renders Figure 10 (Google/ABM on CIRCLE and LINEAR) or
// Figure 13 (Amazon on CIRCLE).
func writeBoundaries(out *os.File, profile synth.Profile, seed uint64, exp string) {
	circle, linear := core.ProbeDatasets(profile, seed)
	type probe struct {
		platform string
		ds       string
	}
	var probes []probe
	if exp == "fig10" {
		probes = []probe{
			{"google", "CIRCLE"}, {"google", "LINEAR"},
			{"abm", "CIRCLE"}, {"abm", "LINEAR"},
		}
	} else {
		probes = []probe{{"amazon", "CIRCLE"}}
	}
	for _, pr := range probes {
		p, err := platforms.New(pr.platform)
		if err != nil {
			fatal(err)
		}
		ds := circle
		if pr.ds == "LINEAR" {
			ds = linear
		}
		cfg := pipeline.Config{}
		if p.BaselineClassifier() != "" {
			c, err := p.Surface().DefaultConfig(p.BaselineClassifier())
			if err != nil {
				fatal(err)
			}
			cfg = c
		}
		bm, err := core.ExtractBoundary(p, ds, cfg, 40, seed)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "%s decision boundary on %s (linearity %.3f)\n", pr.platform, pr.ds, bm.LinearityScore())
		fmt.Fprint(out, bm.ASCII())
	}
}

// writeTable5 prints the linear/non-linear classifier family split.
func writeTable5(out *os.File) {
	linear, nonLinear := classifiers.LinearFamily()
	label := func(names []string) string {
		var parts []string
		for _, n := range names {
			info, err := classifiers.Lookup(n)
			if err != nil {
				continue
			}
			parts = append(parts, info.Label)
		}
		return strings.Join(parts, ", ")
	}
	fmt.Fprintln(out, "Table 5: classifier families")
	fmt.Fprintf(out, "  Linear:     %s\n", label(linear))
	fmt.Fprintf(out, "  Non-linear: %s\n", label(nonLinear))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mlaas-bench:", err)
	os.Exit(1)
}
