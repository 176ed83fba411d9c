package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// repResult is what one repetition — one fresh process — reports.
type repResult struct {
	Workload  string             `json:"workload"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// repOptions selects and sizes one repetition.
type repOptions struct {
	Workload string
	Seed     uint64
	// Window is the measured stretch; warm-up is a quarter of it. The sweep
	// measures fixed work instead.
	Window  time.Duration
	Traced  bool
	Corrupt bool   // flip one oracle answer: the run must then fail
	OutDir  string // trace files
	WorkDir string // scratch for the disk tier
}

var errNoOps = errors.New("no operation succeeded in the measured window")

func runRep(ctx context.Context, o repOptions) (repResult, error) {
	switch {
	case o.Workload == wSweep && o.Traced:
		return traceSweepRep(ctx, o)
	case o.Workload == wSweep:
		return sweepRep(ctx, o)
	case o.Traced:
		return traceServeRep(ctx, o)
	default:
		return serveRep(ctx, o)
	}
}

// endToEndMetrics fills the six window metrics from the readings around it;
// setup_s is the caller's.
func endToEndMetrics(setupS float64, ops int64, h *hist, before, after usage) map[string]float64 {
	n := float64(ops)
	return map[string]float64{
		"setup_s":          setupS,
		"throughput_ops_s": n / after.at.Sub(before.at).Seconds(),
		"latency_p50_ms":   h.quantile(0.50) / 1e6,
		"latency_p95_ms":   h.quantile(0.95) / 1e6,
		"cpu_ms_per_op":    float64(after.cpu-before.cpu) / 1e6 / n,
		"alloc_kb_per_op":  float64(after.alloc-before.alloc) / 1024 / n,
		"peak_rss_mb":      peakRSSMB(),
	}
}

func serveRep(ctx context.Context, o repOptions) (repResult, error) {
	res := repResult{Workload: o.Workload}
	f, err := startServe(ctx, o.Workload, o.Seed, nil, o.WorkDir)
	if err != nil {
		return res, err
	}
	defer f.close()
	if o.Corrupt {
		f.flipOneLabel()
	}
	cs := f.newCallers(o.Seed, clients())
	warm := f.run(ctx, cs, o.Window/4)
	meas := f.run(ctx, cs, o.Window)
	checked, bad := f.checkTrained(ctx, cs, o.Seed, 8)

	res.Attempted = int64(len(f.plan.Models)) + warm.ok + warm.failed + meas.ok + meas.failed + checked
	res.Failed = warm.failed + meas.failed + bad
	if meas.ok == 0 {
		return res, errNoOps
	}
	res.Metrics = endToEndMetrics(f.setupS, meas.ok, meas.h, meas.before, meas.after)
	return res, nil
}

func traceServeRep(ctx context.Context, o repOptions) (repResult, error) {
	res := repResult{Workload: o.Workload}
	rec := newRecorder()
	f, err := startServe(ctx, o.Workload, o.Seed, rec, o.WorkDir)
	if err != nil {
		return res, err
	}
	defer f.close()
	if o.Corrupt {
		f.flipOneLabel()
	}
	// One client, so spans nest by time.
	cs := f.newCallers(o.Seed, 1)
	warm := f.run(ctx, cs, o.Window/4)
	c0 := f.readCounters()
	plain := f.run(ctx, cs, o.Window/2)
	rec.enable(true)
	traced := f.run(ctx, cs, o.Window)
	rec.enable(false)
	c1 := f.readCounters()

	res.Attempted = int64(len(f.plan.Models)) + warm.ok + warm.failed + plain.ok + plain.failed + traced.ok + traced.failed
	res.Failed = warm.failed + plain.failed + traced.failed
	if plain.ok == 0 || traced.ok == 0 {
		return res, errNoOps
	}

	out := newLayerMetrics()
	spans := rec.snapshot()
	warnDropped(rec)
	addSpanMetrics(out, spans)
	addFitMetrics(out, f.fits)
	addCounterMetrics(out, c0, c1, plain.ok+traced.ok)
	addRuntimeMetrics(out, plain.before, plain.after, plain.ok)
	out["service.train_ms"] = meanMs(f.trains)
	out["service.upload_ms"] = meanMs(f.uploads)
	addKernelProbes(out)
	if err := addStoreProbes(out, o.WorkDir, f.oracle[:min(len(f.oracle), 8)]); err != nil {
		return res, err
	}
	// Same client, same op stream: the mean latency ratio is the slowdown
	// the span wrappers cause.
	perOp := func(p phase) float64 { return float64(p.busy) / float64(p.ok+p.failed) }
	out["trace.overhead_share"] = 1 - perOp(plain)/perOp(traced)
	res.Metrics = out
	return res, writeTrace(filepath.Join(o.OutDir, o.Workload+".trace.jsonl"), spans)
}

// warnDropped says so when the span buffer filled up: the per-layer means
// then cover only the first part of the traced stretch.
func warnDropped(rec *recorder) {
	if rec.drops > 0 {
		fmt.Fprintf(os.Stderr, "benchmarks: span buffer full, %d spans dropped\n", rec.drops)
	}
}

func sweepRep(ctx context.Context, o repOptions) (repResult, error) {
	res := repResult{Workload: o.Workload}
	run, err := runSweep(ctx)
	if err != nil {
		return res, err
	}
	refs := sweepRefs(run.sw)
	sample := sampleRefs(refs, o.Seed, "oracle", sweepOracleSample)
	if o.Corrupt {
		flipOneScore(run, sample[0])
	}
	bad, err := verifySweep(run.sw, sample)
	if err != nil {
		return res, err
	}
	res.Attempted = int64(len(refs) + len(sample))
	res.Failed = bad
	res.Metrics = endToEndMetrics(run.setupS, int64(len(refs)), run.latencies(), run.before, run.after)
	return res, nil
}

func traceSweepRep(ctx context.Context, o repOptions) (repResult, error) {
	res := repResult{Workload: o.Workload}
	run, err := runSweep(ctx)
	if err != nil {
		return res, err
	}
	refs := sweepRefs(run.sw)
	sample := traceSample(refs, o.Seed, sweepTraceSample)
	if o.Corrupt {
		flipOneScore(run, sample[0])
	}
	out := newLayerMetrics()
	addCoreMetrics(out, run)
	addRuntimeMetrics(out, run.before, run.after, int64(len(refs)))

	// Three passes over the same sample: one to warm caches, one timed with
	// the recorder off, one timed with it on.
	rec := newRecorder()
	var fits []timing
	var bad int64
	var elapsed [3]time.Duration
	for pass := range elapsed {
		rec.enable(pass == 2)
		start := time.Now()
		if fits, bad, err = decomposeSweep(run.sw, sample, rec); err != nil {
			return res, err
		}
		elapsed[pass] = time.Since(start)
	}
	rec.enable(false)
	spans := rec.snapshot()
	warnDropped(rec)
	addSpanMetrics(out, spans)
	addFitMetrics(out, fits)
	addKernelProbes(out)
	out["trace.overhead_share"] = 1 - elapsed[1].Seconds()/elapsed[2].Seconds()

	res.Attempted = int64(len(refs) + len(sample))
	res.Failed = bad
	res.Metrics = out
	return res, writeTrace(filepath.Join(o.OutDir, o.Workload+".trace.jsonl"), spans)
}
