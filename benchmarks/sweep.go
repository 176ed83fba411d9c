package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"mlaasbench/internal/core"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/metrics"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
)

const (
	// sweepDatasets × all seven platforms is the fixed work one repetition
	// measures: the first corpus datasets under the quick profile (a 260×24
	// clusters and a 260×24 sparse concept, 1 976 measurements).
	sweepDatasets = 2
	// sweepOracleSample measurements are re-run through Platform.Run after
	// the window; sweepTraceSample are decomposed stage by stage when traced.
	sweepOracleSample = 64
	sweepTraceSample  = 200
)

// sweepOptions is the sweep over the first corpus datasets. Its input is the
// paper's fixed corpus: core.Options has one seed that roots both the data
// and every fit, and varying it moved the fixed work itself by ±10 %
// (alloc_kb_per_op 230–280 across ten seeds). The run seed picks which
// measurements the oracle re-runs instead.
func sweepOptions(datasets int) core.Options {
	return core.Options{Profile: synth.Quick, Seed: synth.CorpusSeed, MaxDatasets: datasets,
		StorePredictions: true, Workers: runtime.NumCPU()}
}

// warmupOptions is the set-up sweep: the first dataset on every platform but
// local, whose 540 configurations alone would cost more than the rest of the
// set-up and the other platforms together.
func warmupOptions() core.Options {
	o := sweepOptions(1)
	for _, p := range platforms.Names() {
		if p != "local" {
			o.Platforms = append(o.Platforms, p)
		}
	}
	return o
}

// measurementRef addresses one measurement of a sweep.
type measurementRef struct {
	platform string
	dataset  int
	idx      int
}

// sweepRefs lists every measurement of the sweep in platform, corpus, config
// order, so a seeded draw from it is reproducible.
func sweepRefs(sw *core.Sweep) []measurementRef {
	var refs []measurementRef
	for _, p := range sw.Platforms() {
		for di, d := range sw.Datasets {
			for i := range sw.ByPlatform[p][d.Name] {
				refs = append(refs, measurementRef{p, di, i})
			}
		}
	}
	return refs
}

func sampleRefs(refs []measurementRef, seed uint64, name string, n int) []measurementRef {
	r := rng.New(seed).Split(name)
	out := make([]measurementRef, n)
	for i := range out {
		out[i] = refs[r.Intn(len(refs))]
	}
	return out
}

// traceSample is the sample the traced run decomposes: every measurement of
// the platforms that have only a handful (the black boxes take one per
// dataset and a uniform draw would miss them), then uniform draws up to n.
func traceSample(refs []measurementRef, seed uint64, n int) []measurementRef {
	perPlatform := map[string]int{}
	for _, r := range refs {
		perPlatform[r.platform]++
	}
	var out []measurementRef
	for _, r := range refs {
		if perPlatform[r.platform] < 8 {
			out = append(out, r)
		}
	}
	return append(out, sampleRefs(refs, seed, "trace", n-len(out))...)
}

func sameMeasurement(m core.Measurement, scores metrics.Scores, pred []int) bool {
	if m.Scores != scores || len(m.Pred) != len(pred) {
		return false
	}
	for i, v := range pred {
		if m.Pred[i] != uint8(v) {
			return false
		}
	}
	return true
}

// verifySweep re-runs a seeded sample of the sweep's measurements through the
// platform's plain Run and counts those whose scores or predictions differ.
func verifySweep(sw *core.Sweep, sample []measurementRef) (failed int64, err error) {
	for _, ref := range sample {
		d := sw.Datasets[ref.dataset]
		m := sw.ByPlatform[ref.platform][d.Name][ref.idx]
		p, err := platforms.New(ref.platform)
		if err != nil {
			return 0, err
		}
		res, err := p.Run(m.Config, d.Split.Train, d.Split.Test, sw.Opts.Seed)
		if err != nil || !sameMeasurement(m, res.Scores, res.Pred) {
			failed++
		}
	}
	return failed, nil
}

// sweepRun is one measured sweep with the readings that bracket it.
type sweepRun struct {
	sw            *core.Sweep
	reg           *telemetry.Registry
	setupS        float64
	before, after usage
	featHits      int64
	featMisses    int64
}

// runSweep warms up with a small sweep (the set-up), then measures the
// fixed-work sweep.
func runSweep(ctx context.Context) (*sweepRun, error) {
	run := &sweepRun{reg: telemetry.NewRegistry()}
	ctx = telemetry.WithRegistry(ctx, run.reg)
	start := time.Now()
	if _, err := core.RunSweep(ctx, warmupOptions()); err != nil {
		return nil, err
	}
	run.setupS = time.Since(start).Seconds()
	hits, misses := run.reg.SumCounters(telemetry.FeatCacheHits), run.reg.SumCounters(telemetry.FeatCacheMisses)

	runtime.GC()
	run.before = readUsage()
	sw, err := core.RunSweep(ctx, sweepOptions(sweepDatasets))
	if err != nil {
		return nil, err
	}
	run.after = readUsage()
	run.sw = sw
	run.featHits = run.reg.SumCounters(telemetry.FeatCacheHits) - hits
	run.featMisses = run.reg.SumCounters(telemetry.FeatCacheMisses) - misses
	return run, nil
}

// latencies is the distribution of the sweep's per-measurement wall times.
func (run *sweepRun) latencies() *hist {
	h := newHist()
	for _, byDS := range run.sw.ByPlatform {
		for _, list := range byDS {
			for _, m := range list {
				h.record(time.Duration(m.Micros) * time.Microsecond)
			}
		}
	}
	return h
}

// flipOneScore corrupts one measurement's score, for the self-test that
// proves the comparison is live.
func flipOneScore(run *sweepRun, ref measurementRef) {
	run.sw.ByPlatform[ref.platform][run.sw.Datasets[ref.dataset].Name][ref.idx].Scores.F1 += 0.5
}

// addCoreMetrics reports the scheduler's view of the sweep: how busy the
// workers were and what a measurement cost per platform.
func addCoreMetrics(out map[string]float64, run *sweepRun) {
	var total float64
	ms := means{}
	n := 0
	for p, byDS := range run.sw.ByPlatform {
		for _, list := range byDS {
			for _, m := range list {
				total += float64(m.Micros)
				ms.add("core.measure_ms_mean."+p, float64(m.Micros)/1e3, 1)
				n++
			}
		}
	}
	ms.flush(out)
	wallUs := float64(run.after.at.Sub(run.before.at)) / 1e3
	out["core.busy_share"] = total / (wallUs * float64(runtime.NumCPU()))
	out["core.measurements"] = float64(n)
	if lookups := run.featHits + run.featMisses; lookups > 0 {
		out["pipeline.featcache_hit_share"] = float64(run.featHits) / float64(lookups)
	}
}

// decomposeSweep takes a sample of the sweep's measurements apart stage by
// stage — generate, FEAT fit, fit, predict, score — from outside, recording a
// span per stage when rec is on. It returns the fits' timings and how many
// samples scored differently from the sweep's own measurement.
func decomposeSweep(sw *core.Sweep, sample []measurementRef, rec *recorder) (fits []timing, failed int64, err error) {
	specs := synth.Corpus()
	splitRNG := rng.New(sw.Opts.Seed).Split("splits")
	for _, ref := range sample {
		info := sw.Datasets[ref.dataset]
		m := sw.ByPlatform[ref.platform][info.Name][ref.idx]
		p, err := platforms.New(ref.platform)
		if err != nil {
			return nil, 0, err
		}
		rec.nextOp()
		opSpan := rec.start(spanSample, ref.platform, 0)

		var sp dataset.Split
		s := rec.start(spanSynth, "", 0)
		ds := synth.GenerateClean(specs[ref.dataset], sw.Opts.Profile, sw.Opts.Seed)
		sp = ds.StratifiedSplit(0.7, splitRNG.Split(ds.Name))
		rec.end(s)

		fit := timing{Platform: ref.platform, Family: m.Config.Classifier, FeatKind: m.Config.Feat.Kind}
		var ft *pipeline.FittedTransform
		if k := m.Config.Feat.Kind; k != "" && k != "none" {
			s = rec.start(spanFitFeat, k, 0)
			t := time.Now()
			ft, _, err = pipeline.FitFeat(m.Config.Feat, sp.Train)
			fit.FeatMs = msSince(t)
			rec.end(s)
			if err != nil {
				return nil, 0, err
			}
		}
		s = rec.start(spanFit, ref.platform+"/"+m.Config.Classifier, 0)
		t := time.Now()
		fm, err := p.Fit(m.Config, sp.Train, sw.Opts.Seed)
		fit.Ms = msSince(t)
		rec.end(s)
		if err != nil {
			return nil, 0, fmt.Errorf("fit %s %s: %w", ref.platform, m.Config, err)
		}
		fits = append(fits, fit)

		var pred []int
		rows := len(sp.Test.X)
		s = rec.start(spanPredict, m.Config.Classifier, rows)
		pred = fm.Predict(sp.Test.X)
		rec.end(s)
		if ft != nil {
			rec.replay(s, spanFeatApply, ft.Feat().Kind, rows, func() { ft.Apply(sp.Test.X) })
		}

		s = rec.start(spanScore, "", 0)
		scores, err := metrics.Score(sp.Test.Y, pred)
		rec.end(s)
		rec.end(opSpan)
		if err != nil || !sameMeasurement(m, scores, pred) {
			failed++
		}
	}
	return fits, failed, nil
}
