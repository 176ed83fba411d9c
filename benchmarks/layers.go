package main

import (
	"context"
	"os"
	"time"

	"mlaasbench/internal/linalg"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/store"
	"mlaasbench/internal/telemetry"
)

// metricDef names one reported metric. Bound is the share of the baseline
// value an end-to-end metric may worsen by before it counts as a regression;
// per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Best reports the best of a run's repetitions instead of their median.
	// It is set on the metrics timed over the window: on a shared machine
	// interference only ever makes a repetition slower, so the fastest one
	// is the better estimate of the undisturbed program. Over ten runs per
	// workload the quartile spread of best-of-3 was at most that of the
	// median-of-3 whenever a slow stretch hit (routed p95 15 % against
	// 23 %) and the same otherwise. Sizes (allocation, RSS) have no such
	// one-sided noise and keep the median, as does the set-up time.
	Best bool
}

// value is the figure a run reports for the metric.
func (d metricDef) value(st stat) float64 {
	switch {
	case !d.Best:
		return st.Median
	case d.Better == "higher":
		return st.Max
	default:
		return st.Min
	}
}

// endToEnd is what a user of the system sees, the same seven on every
// workload. The bounds are three times the quartile spread measured over ten
// runs per workload on a quiet machine, rounded up to cover the slow
// stretches a shared one adds.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25, Best: true},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Best: true},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25, Best: true},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25, Best: true},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.08},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

var families = []string{"boosted", "dtree", "bagging", "randomforest", "jungle",
	"knn", "lda", "logreg", "mlp", "naivebayes", "perceptron", "bpm", "svm"}

// perLayer lists the per-layer metrics of the traced run. A layer a workload
// does not exercise reports 0 there: that is the statement that the workload
// bypasses it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	for _, f := range families {
		add("classifiers.predict_ns_per_row."+f, "ns/row", "lower")
	}
	for _, f := range families {
		add("classifiers.fit_ms."+f, "ms", "lower")
	}
	add("linalg.gemm_nt_gflops", "GFLOP/s", "higher")
	add("linalg.sqdist_ns_per_pair", "ns", "lower")
	for _, k := range []string{"scaler", "filter", "fisherlda"} {
		add("pipeline.fit_feat_ms."+k, "ms", "lower")
	}
	add("pipeline.featcache_hit_share", "share", "higher")
	add("pipeline.apply_ns_per_row.scaler", "ns/row", "lower")
	add("pipeline.apply_ns_per_row.filter", "ns/row", "lower")
	for _, p := range platforms.Names() {
		add("platforms.fit_ms."+p, "ms", "lower")
	}
	add("synth.generate_ms", "ms", "lower")
	add("metrics.score_us", "us", "lower")
	add("core.busy_share", "share", "higher")
	add("core.measurements", "count", "higher")
	for _, p := range platforms.Names() {
		add("core.measure_ms_mean."+p, "ms", "lower")
	}
	add("wire.encode_ns_per_row", "ns/row", "lower")
	add("wire.decode_ns_per_row", "ns/row", "lower")
	add("wire.labels_ns_per_row", "ns/row", "lower")
	add("wire.json_encode_ns_per_row", "ns/row", "lower")
	add("wire.json_decode_ns_per_row", "ns/row", "lower")
	add("client.self_us", "us", "lower")
	add("client.transport_self_us", "us", "lower")
	add("client.retries", "count", "lower")
	add("cluster.relay_self_us", "us", "lower")
	add("cluster.failovers", "count", "lower")
	add("cluster.repairs", "count", "lower")
	add("service.handler_us", "us", "lower")
	add("service.handler_self_us", "us", "lower")
	add("service.modelcache_hit_share", "share", "higher")
	add("service.store_hit_share", "share", "higher")
	add("service.refit_share", "share", "lower")
	add("service.evictions_per_kop", "1/kop", "lower")
	add("service.train_ms", "ms", "lower")
	add("service.upload_ms", "ms", "lower")
	add("store.put_model_us", "us", "lower")
	add("store.get_model_us", "us", "lower")
	add("store.model_kb", "KB", "lower")
	add("telemetry.span_ns", "ns", "lower")
	add("telemetry.observe_ns", "ns", "lower")
	add("runtime.mallocs_per_op", "count", "lower")
	add("runtime.gc_per_kop", "1/kop", "lower")
	add("runtime.live_heap_mb", "MB", "lower")
	add("trace.overhead_share", "share", "lower")
	return out
}

// newLayerMetrics returns every per-layer metric at 0.
func newLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

// mean accumulates a ratio of sums.
type mean struct{ num, den float64 }

func (m *mean) add(num, den float64) { m.num += num; m.den += den }

func (m mean) value() float64 {
	if m.den == 0 {
		return 0
	}
	return m.num / m.den
}

// means is a set of named ratio accumulators; flush writes the ones that
// name a known metric.
type means map[string]*mean

func (ms means) add(name string, num, den float64) {
	if ms[name] == nil {
		ms[name] = &mean{}
	}
	ms[name].add(num, den)
}

func (ms means) flush(out map[string]float64) {
	for name, m := range ms {
		if _, ok := out[name]; ok {
			out[name] = m.value()
		}
	}
}

// wireMetrics maps a replayed codec span and its codec to the metric it feeds.
// A metric fed by two spans of one op (the label round trip; JSON's two
// encodes and two decodes) counts the op's rows once.
var wireMetrics = map[string]map[string]struct {
	name      string
	countRows bool
}{
	spanEncodeReq:  {"binary": {"wire.encode_ns_per_row", true}, "json": {"wire.json_encode_ns_per_row", true}},
	spanDecodeReq:  {"binary": {"wire.decode_ns_per_row", true}, "json": {"wire.json_decode_ns_per_row", true}},
	spanEncodeResp: {"binary": {"wire.labels_ns_per_row", true}, "json": {"wire.json_encode_ns_per_row", false}},
	spanDecodeResp: {"binary": {"wire.labels_ns_per_row", false}, "json": {"wire.json_decode_ns_per_row", false}},
}

// addSpanMetrics derives the span-based layer metrics: mean self time per
// layer boundary and per-row costs of the replayed stages.
func addSpanMetrics(out map[string]float64, spans []span) {
	self := selfTimes(spans)
	ms := means{}
	const us = 1e3
	for _, s := range spans {
		dur, own, rows := float64(s.dur()), float64(self[s.ID]), float64(s.Rows)
		switch s.Name {
		case spanOp:
			ms.add("client.self_us", own/us, 1)
		case spanTransport:
			ms.add("client.transport_self_us", own/us, 1)
		case spanRouter:
			ms.add("cluster.relay_self_us", own/us, 1)
		case spanHandler:
			ms.add("service.handler_us", dur/us, 1)
			ms.add("service.handler_self_us", own/us, 1)
		case spanPredict:
			ms.add("classifiers.predict_ns_per_row."+s.Tag, own, rows)
		case spanFeatApply:
			ms.add("pipeline.apply_ns_per_row."+s.Tag, dur, rows)
		case spanEncodeReq, spanDecodeReq, spanEncodeResp, spanDecodeResp:
			m := wireMetrics[s.Name][s.Tag]
			if !m.countRows {
				rows = 0
			}
			ms.add(m.name, dur, rows)
		case spanSynth:
			ms.add("synth.generate_ms", dur/1e6, 1)
		case spanScore:
			ms.add("metrics.score_us", dur/us, 1)
		}
	}
	ms.flush(out)
}

// addFitMetrics derives the fit-time layer metrics from timed in-process
// fits: by platform the whole fit, by family the fit without its FEAT stage,
// by FEAT kind the FEAT stage alone.
func addFitMetrics(out map[string]float64, fits []timing) {
	ms := means{}
	for _, f := range fits {
		ms.add("platforms.fit_ms."+f.Platform, f.Ms, 1)
		if f.Family != "" {
			ms.add("classifiers.fit_ms."+f.Family, f.Ms-f.FeatMs, 1)
		}
		if f.FeatMs > 0 {
			ms.add("pipeline.fit_feat_ms."+f.FeatKind, f.FeatMs, 1)
		}
	}
	ms.flush(out)
}

func meanMs(ts []timing) float64 {
	var m mean
	for _, t := range ts {
		m.add(t.Ms, 1)
	}
	return m.value()
}

// counters is a reading of the public registries' counters the service
// metrics are built from.
type counters struct {
	hits, misses, storeHits, evictions, retries, failovers, repairs int64
}

func (f *serveFixture) readCounters() counters {
	var c counters
	for _, s := range f.svcs {
		reg := s.Registry()
		c.hits += reg.SumCounters(telemetry.ModelCacheHits)
		c.misses += reg.SumCounters(telemetry.ModelCacheMisses)
		c.storeHits += reg.SumCounters(telemetry.StoreHits)
		c.evictions += reg.SumCounters(telemetry.ModelCacheEvictions)
	}
	c.retries = f.clReg.SumCounters("mlaas_client_retries_total")
	if f.router != nil {
		c.failovers = f.router.Registry().SumCounters(telemetry.RouterFailoversTotal)
		c.repairs = f.router.Registry().SumCounters(telemetry.RouterRepairsTotal)
	}
	return c
}

// addCounterMetrics turns the counter deltas over ops requests into the
// service, client and cluster count metrics.
func addCounterMetrics(out map[string]float64, before, after counters, ops int64) {
	hits, misses, disk := after.hits-before.hits, after.misses-before.misses, after.storeHits-before.storeHits
	if resolves := float64(hits + misses + disk); resolves > 0 {
		out["service.modelcache_hit_share"] = float64(hits) / resolves
		out["service.store_hit_share"] = float64(disk) / resolves
		out["service.refit_share"] = float64(misses) / resolves
	}
	if ops > 0 {
		out["service.evictions_per_kop"] = 1000 * float64(after.evictions-before.evictions) / float64(ops)
	}
	out["client.retries"] = float64(after.retries - before.retries)
	out["cluster.failovers"] = float64(after.failovers - before.failovers)
	out["cluster.repairs"] = float64(after.repairs - before.repairs)
}

// addRuntimeMetrics reports allocation and GC pressure per op over an
// untraced stretch of load.
func addRuntimeMetrics(out map[string]float64, before, after usage, ops int64) {
	n := float64(ops)
	out["runtime.mallocs_per_op"] = float64(after.mallocs-before.mallocs) / n
	out["runtime.gc_per_kop"] = 1000 * float64(after.gcs-before.gcs) / n
	out["runtime.live_heap_mb"] = float64(before.heap) / (1 << 20)
}

// probeSink keeps probe results alive so the calls are not optimised away.
var probeSink float64

// timeLoop runs fn repeatedly for about d and returns the mean nanoseconds
// per call.
func timeLoop(d time.Duration, fn func()) float64 {
	fn() // page in and size buffers before the clock starts
	n, start := 0, time.Now()
	for time.Since(start) < d {
		for i := 0; i < 16; i++ {
			fn()
		}
		n += 16
	}
	return float64(time.Since(start)) / float64(n)
}

// addKernelProbes times the linalg and telemetry primitives every workload's
// hot path calls, from outside, on fixed shapes: a 256×32 by 128×32
// transposed product (one dense batch against a hidden layer) and the
// 256×1600 squared-distance block kNN computes per batch.
func addKernelProbes(out map[string]float64) {
	const m, n, k, train = 256, 128, 32, 1600
	r := rng.New(1)
	rows := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, k)
			for j := range out[i] {
				out[i][j] = r.NormFloat64()
			}
		}
		return out
	}
	qs := rows(m)
	a, b, x := linalg.FromRows(qs), linalg.FromRows(rows(n)), linalg.FromRows(rows(train))
	c := linalg.NewMatrix(m, n)
	ns := timeLoop(60*time.Millisecond, func() { linalg.MulTransBInto(c, a, b) })
	out["linalg.gemm_nt_gflops"] = 2 * m * n * k / ns
	probeSink += c.At(0, 0)

	d := make([]float64, m*train)
	ns = timeLoop(60*time.Millisecond, func() { linalg.SquaredEuclideanBatch(d, qs, x) })
	out["linalg.sqdist_ns_per_pair"] = ns / (m * train)
	probeSink += d[0]

	reg := telemetry.NewRegistry()
	ctx := telemetry.WithRegistry(context.Background(), reg)
	out["telemetry.span_ns"] = timeLoop(30*time.Millisecond, func() {
		_, s := telemetry.StartSpan(ctx, "probe")
		s.End()
	})
	h := reg.Histogram("probe_seconds", "route", "probe")
	out["telemetry.observe_ns"] = timeLoop(30*time.Millisecond, func() { h.Observe(0.001) })
}

// addStoreProbes times the disk tier on the workload's own models: write one
// artifact, read it back, and report its size.
func addStoreProbes(out map[string]float64, workDir string, models []platforms.FittedModel) error {
	if len(models) == 0 {
		return nil
	}
	dir, err := os.MkdirTemp(workDir, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var put, get, kb mean
	for i, m := range models {
		key := "probe/" + string(rune('a'+i))
		t := time.Now()
		if err := st.PutModel(key, m); err != nil {
			return err
		}
		put.add(float64(time.Since(t))/1e3, 1)
		t = time.Now()
		if _, _, err := st.GetModel(key); err != nil {
			return err
		}
		get.add(float64(time.Since(t))/1e3, 1)
		if fi, err := os.Stat(st.ModelPath(key)); err == nil {
			kb.add(float64(fi.Size())/1024, 1)
		}
	}
	out["store.put_model_us"], out["store.get_model_us"], out["store.model_kb"] = put.value(), get.value(), kb.value()
	return nil
}
