package main

import (
	"bytes"
	"context"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"mlaasbench/internal/client"
	"mlaasbench/internal/core"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
)

// tinyPlan is a serve workload small enough for a unit test: two models on a
// 200×4 dataset, 4-row batches, the churn mix.
func tinyPlan(t *testing.T, codec client.Codec) *servePlan {
	t.Helper()
	ds := synth.GenerateClean(serveSpec("tiny", synth.GenBlobs, 200, 4), synth.Full, 3)
	sp := ds.StratifiedSplit(0.8, rng.New(3))
	p := &servePlan{Name: "tiny", Train: sp.Train, BatchRows: 4, Codec: codec,
		CacheModels: 1, Store: true, TrainEvery: 5,
		Models: []modelSpec{
			{Platform: "local", Classifier: "logreg", Feat: "scaler:standard", Seed: 1, Weight: 1},
			{Platform: "microsoft", Classifier: "perceptron", Seed: 2, Weight: 1},
		},
		Churn: []modelSpec{{Platform: "local", Classifier: "dtree", Weight: 1}},
	}
	for b := 0; b < batchesPerWorkload; b++ {
		p.Batches = append(p.Batches, sp.Test.X[4*b:4*b+4])
	}
	return p
}

// A correct system passes every check; one flipped expected label makes the
// same run report failed ops, which the driver turns into "correct": false
// and a non-zero exit.
func TestFlippedLabelFailsTheRun(t *testing.T) {
	ctx := context.Background()
	for _, corrupt := range []bool{false, true} {
		f, err := newServeFixture(ctx, tinyPlan(t, client.CodecBinary), nil, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if corrupt {
			f.flipOneLabel()
		}
		cs := f.newCallers(1, 2)
		ph := f.run(ctx, cs, 100*time.Millisecond)
		checked, bad := f.checkTrained(ctx, cs, 1, 4)
		f.close()
		if ph.ok == 0 || checked != 4 || bad != 0 {
			t.Fatalf("corrupt=%v: %d ops ok, %d trained models checked, %d bad", corrupt, ph.ok, checked, bad)
		}
		if !corrupt && ph.failed != 0 {
			t.Errorf("%d ops failed against an honest oracle", ph.failed)
		}
		if corrupt && ph.failed == 0 {
			t.Error("no op failed although an expected label was flipped")
		}
		if int64(ph.h.n) != ph.ok {
			t.Errorf("%d latencies recorded for %d successful ops: failed ops must not count", ph.h.n, ph.ok)
		}
		sum := summarize("tiny", []repResult{{Attempted: ph.ok + ph.failed, Failed: ph.failed, Metrics: map[string]float64{"setup_s": f.setupS}}})
		line, err := sum.contractLine([]metricDef{{Name: "setup_s", Unit: "s"}})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Contains(string(line), `"correct":true`); got == corrupt {
			t.Errorf("corrupt=%v but result line is %s", corrupt, line)
		}
	}
}

// The traced path on the tiny plan: every layer boundary of a direct JSON
// request shows up as a span, and the replayed stages attribute their time.
func TestTracedServeRecordsEveryBoundary(t *testing.T) {
	ctx := context.Background()
	rec := newRecorder()
	f, err := newServeFixture(ctx, tinyPlan(t, client.CodecJSON), rec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	rec.enable(true)
	ph := f.run(ctx, f.newCallers(1, 1), 50*time.Millisecond)
	rec.enable(false)
	if ph.ok == 0 || ph.failed != 0 {
		t.Fatalf("%d ok, %d failed", ph.ok, ph.failed)
	}
	out := newLayerMetrics()
	addSpanMetrics(out, rec.snapshot())
	addFitMetrics(out, f.fits)
	for _, name := range []string{"client.self_us", "client.transport_self_us", "service.handler_us",
		"classifiers.predict_ns_per_row.logreg", "classifiers.predict_ns_per_row.perceptron",
		"pipeline.apply_ns_per_row.scaler", "pipeline.fit_feat_ms.scaler",
		"wire.json_encode_ns_per_row", "wire.json_decode_ns_per_row",
		"classifiers.fit_ms.logreg", "platforms.fit_ms.microsoft"} {
		if out[name] <= 0 {
			t.Errorf("%s = %v, want a measured value", name, out[name])
		}
	}
	for _, name := range []string{"cluster.relay_self_us", "wire.decode_ns_per_row", "classifiers.predict_ns_per_row.knn"} {
		if out[name] != 0 {
			t.Errorf("%s = %v on a workload that bypasses it, want 0", name, out[name])
		}
	}
}

func tinySweep(t *testing.T) *sweepRun {
	t.Helper()
	o := sweepOptions(1)
	o.Platforms = []string{"google", "amazon", "predictionio"}
	sw, err := core.RunSweep(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	return &sweepRun{sw: sw}
}

// One flipped score in the sweep's sample is one failed op.
func TestFlippedScoreFailsTheSweepCheck(t *testing.T) {
	run := tinySweep(t)
	refs := sweepRefs(run.sw)
	sample := sampleRefs(refs, 5, "oracle", 8)
	if bad, err := verifySweep(run.sw, sample); err != nil || bad != 0 {
		t.Fatalf("honest sweep: %d of %d samples differ (%v)", bad, len(sample), err)
	}
	if _, bad, err := decomposeSweep(run.sw, sample, newRecorder()); err != nil || bad != 0 {
		t.Fatalf("honest sweep, stage by stage: %d of %d samples differ (%v)", bad, len(sample), err)
	}
	flipOneScore(run, sample[0])
	dup := int64(0)
	for _, r := range sample {
		if r == sample[0] {
			dup++
		}
	}
	if bad, _ := verifySweep(run.sw, sample); bad != dup {
		t.Errorf("after flipping one score %d samples differ, want %d", bad, dup)
	}
	if _, bad, _ := decomposeSweep(run.sw, sample, newRecorder()); bad != dup {
		t.Errorf("after flipping one score the staged check sees %d differ, want %d", bad, dup)
	}
}

func TestDecomposeSweepRecordsStages(t *testing.T) {
	run := tinySweep(t)
	rec := newRecorder()
	rec.enable(true)
	fits, _, err := decomposeSweep(run.sw, sampleRefs(sweepRefs(run.sw), 5, "trace", 12), rec)
	if err != nil {
		t.Fatal(err)
	}
	out := newLayerMetrics()
	addSpanMetrics(out, rec.snapshot())
	addFitMetrics(out, fits)
	for _, name := range []string{"synth.generate_ms", "metrics.score_us", "classifiers.fit_ms.logreg", "classifiers.predict_ns_per_row.logreg"} {
		if out[name] <= 0 {
			t.Errorf("%s = %v, want a measured value", name, out[name])
		}
	}
	if out["client.self_us"] != 0 || out["service.handler_us"] != 0 {
		t.Error("the sweep has no client or handler, yet their metrics are set")
	}
}

// BENCHMARK.json is generated from the driver's own metric tables; this
// keeps the committed file from drifting and checks the contract's limits.
func TestBenchmarkJSONMatchesDriver(t *testing.T) {
	want, err := benchmarkJSON(defaultSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `-describe` output; regenerate it with: bash benchmarks/run.sh -describe > BENCHMARK.json")
	}
	if len(perLayer) != 80 || len(endToEnd) != 7 {
		t.Errorf("%d per-layer and %d end-to-end metrics, want 80 and 7", len(perLayer), len(endToEnd))
	}
	name, unit := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`), regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming contract or repeats", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloadNames {
		if why := workloadWhy[w]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, is %d", w, len(why))
		}
	}
}
