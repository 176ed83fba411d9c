package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/client"
	"mlaasbench/internal/cluster"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/metrics"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
)

// RunSweepFleet is RunSweep distributed over a serving fleet: every
// (platform, dataset) unit is assigned to one endpoint by consistent
// hash, its configurations are measured remotely (upload the train
// split, train each config, predict the held-out test set over the
// binary wire codec, score locally — the service never sees test
// labels), and the results merge back in corpus order.
//
// The output is byte-identical to a single-process RunSweep, modulo the
// wall-clock Micros field, at ANY endpoint count: the training substrate
// is deterministic and keyed on (platform, dataset name, config, seed),
// so where a measurement runs never changes what it measures, and the
// PR 3 fit-once contract makes served predictions equal to local ones.
// Unit assignment uses the same consistent-hash ring as the router, so
// adding an endpoint to a recurring sweep only moves its fair share of
// units (warm model caches on the other replicas stay useful).
//
// Endpoints are mlaas-server replicas addressed directly (not through a
// router), so each unit pins its whole upload→train→predict sequence to
// its assigned endpoint: ids are content addresses and would mean the same
// model anywhere, but only that endpoint ever received the unit's upload.
func RunSweepFleet(ctx context.Context, opts Options, endpoints []string) (*Sweep, error) {
	if len(endpoints) == 0 {
		return nil, errors.New("core: fleet sweep needs at least one endpoint")
	}
	if opts.Profile.Name == "" {
		opts.Profile = synth.Quick
	}
	if opts.Seed == 0 {
		opts.Seed = synth.CorpusSeed
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	names := opts.Platforms
	if len(names) == 0 {
		names = platforms.Names()
	}
	plats := make([]platforms.Platform, 0, len(names))
	plans := make([]unitPlan, 0, len(names))
	for _, n := range names {
		p, err := platforms.New(n)
		if err != nil {
			return nil, err
		}
		plan, err := planUnit(p)
		if err != nil {
			return nil, err
		}
		plats = append(plats, p)
		plans = append(plans, plan)
	}
	specs := synth.Corpus()
	if opts.MaxDatasets > 0 && opts.MaxDatasets < len(specs) {
		specs = specs[:opts.MaxDatasets]
	}

	// One client per endpoint, shared by every unit assigned there; the
	// pooled transport keeps the units on warm connections. Units pin to
	// their endpoint (no Fallbacks): no other endpoint holds the unit's
	// dataset, and nothing here replays it, so failover mid-unit would 404.
	ring := cluster.NewRing(endpoints, 0, 1)
	clients := make(map[string]*client.Client, len(endpoints))
	for _, ep := range ring.Members() {
		c := client.New(ep).WithCodec(client.CodecBinary)
		c.Telemetry = telemetry.RegistryFrom(ctx)
		clients[ep] = c
	}

	sw := &Sweep{
		Opts:       opts,
		ByPlatform: make(map[string]map[string][]Measurement, len(plats)),
	}
	for _, p := range plats {
		sw.ByPlatform[p.Name()] = make(map[string][]Measurement, len(specs))
	}

	reg := telemetry.RegistryFrom(ctx)
	defer reg.Time("sweep_fleet")()
	if opts.Tracker != nil {
		opts.Tracker.Begin(len(specs) * len(plans))
	}
	splitRNG := rng.New(opts.Seed).Split("splits")

	type dsOut struct {
		info  DatasetInfo
		units [][]Measurement
	}
	outs := make([]dsOut, len(specs))

	pl := newPool(ctx, workers)
	var progressMu sync.Mutex
	progress := func(line string) {
		if opts.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		opts.Progress(line)
	}

	var dsWG sync.WaitGroup
	for di := range specs {
		dsWG.Add(1)
		go func(di int) {
			defer dsWG.Done()
			// Dataset generation stays local: the sweep needs the split
			// for upload bodies, query instances and held-out labels.
			if !pl.acquire() {
				return
			}
			ds := synth.GenerateClean(specs[di], opts.Profile, opts.Seed)
			sp := ds.StratifiedSplit(0.7, splitRNG.Split(ds.Name))
			pl.release()
			outs[di].info = DatasetInfo{
				Name:   ds.Name,
				Domain: ds.Domain,
				N:      ds.N(),
				D:      ds.D(),
				Linear: ds.Linear,
				TestY:  sp.Test.Y,
				Split:  sp,
			}
			outs[di].units = make([][]Measurement, len(plans))
			var unitWG sync.WaitGroup
			for pi := range plans {
				unitWG.Add(1)
				go func(pi int) {
					defer unitWG.Done()
					owner := ring.Owner("unit/" + plans[pi].platform.Name() + "/" + ds.Name)
					ms := runUnitRemote(pl, clients[owner], plans[pi], sp, ds.Name, opts)
					if ms == nil {
						return
					}
					outs[di].units[pi] = ms
					reg.Counter("mlaas_sweep_measurements_total", "platform", plans[pi].platform.Name()).Add(int64(len(ms)))
					if opts.Tracker != nil {
						opts.Tracker.Add(1)
					}
					progress(fmt.Sprintf("%-14s %-24s %d configs @ %s", plans[pi].platform.Name(), ds.Name, len(ms), owner))
				}(pi)
			}
			unitWG.Wait()
		}(di)
	}
	dsWG.Wait()
	if err := pl.done(); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("core: fleet sweep cancelled: %w", err)
		}
		return nil, err
	}

	for di := range outs {
		sw.Datasets = append(sw.Datasets, outs[di].info)
		for pi, p := range plats {
			sw.ByPlatform[p.Name()][outs[di].info.Name] = outs[di].units[pi]
		}
	}
	return sw, nil
}

// runUnitRemote measures one (platform, dataset) unit against its
// assigned endpoint: one upload, then train+predict per config inside a
// pool slot (the slot bounds in-flight requests, matching the local
// sweep's worker discipline). The returned slice aligns with
// plan.configs; nil means failed or cancelled, with the error on the
// pool.
func runUnitRemote(pl *pool, c *client.Client, plan unitPlan, sp dataset.Split, dsName string, opts Options) []Measurement {
	if !pl.acquire() {
		return nil
	}
	defer pl.release()
	platform := plan.platform.Name()
	unitStart := time.Now()
	dsID, err := c.Upload(pl.ctx, platform, sp.Train)
	if err != nil {
		pl.fail(fmt.Errorf("core: fleet upload %s for %s: %w", dsName, platform, err))
		return nil
	}
	out := make([]Measurement, len(plan.configs))
	for i, cfg := range plan.configs {
		if pl.ctx.Err() != nil {
			return nil
		}
		start := time.Now()
		modelID, err := c.Train(pl.ctx, platform, dsID, cfg, opts.Seed)
		if err != nil {
			pl.fail(fmt.Errorf("core: fleet train %s on %s: %w", platform, dsName, err))
			return nil
		}
		labels, err := c.PredictBatched(pl.ctx, platform, modelID, sp.Test.X, c.PredictBatch)
		if err != nil {
			pl.fail(fmt.Errorf("core: fleet predict %s on %s: %w", platform, dsName, err))
			return nil
		}
		scores, err := metrics.Score(sp.Test.Y, labels)
		if err != nil {
			pl.fail(fmt.Errorf("core: fleet score %s on %s: %w", platform, dsName, err))
			return nil
		}
		// Reproduce measureOne's Measurement exactly: white boxes echo
		// the swept config, black boxes report the hidden-auto config.
		resCfg := cfg
		if plan.blackBox {
			resCfg = pipeline.Config{Classifier: "auto", Params: classifiers.Params{}}
		}
		m := Measurement{
			Platform: platform,
			Dataset:  dsName,
			Config:   resCfg,
			Scores:   scores,
			Baseline: plan.blackBox || cfg.String() == plan.baseKey,
			Micros:   time.Since(start).Microseconds(),
		}
		if opts.StorePredictions {
			m.Pred = packPred(labels)
		}
		out[i] = m
	}
	telemetry.RegistryFrom(pl.ctx).Histogram(telemetry.SweepUnitHistogram, "platform", platform).
		Observe(time.Since(unitStart).Seconds())
	return out
}

// LoadOrRunSweepFleet is LoadOrRunSweep with the measurement work done by
// a fleet: a present cache loads as usual (fleet and local sweeps are
// interchangeable on disk because their results are byte-identical), a
// missing one runs the fleet sweep and saves it.
func LoadOrRunSweepFleet(ctx context.Context, path string, opts Options, endpoints []string) (*Sweep, error) {
	if path != "" {
		if _, err := os.Stat(path); err == nil {
			sw, err := LoadSweep(path, opts)
			if err == nil {
				return sw, nil
			}
			return nil, err
		}
	}
	sw, err := RunSweepFleet(ctx, opts, endpoints)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := sw.Save(path); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// FleetAssignments reports which endpoint each (platform, dataset) unit
// of a sweep would run on — the dry-run view for operators checking
// balance before a long campaign.
func FleetAssignments(opts Options, endpoints []string) map[string]string {
	names := opts.Platforms
	if len(names) == 0 {
		names = platforms.Names()
	}
	specs := synth.Corpus()
	if opts.MaxDatasets > 0 && opts.MaxDatasets < len(specs) {
		specs = specs[:opts.MaxDatasets]
	}
	ring := cluster.NewRing(endpoints, 0, 1)
	out := make(map[string]string, len(specs)*len(names))
	for _, spec := range specs {
		for _, p := range names {
			out[p+"/"+spec.Name] = ring.Owner("unit/" + p + "/" + spec.Name)
		}
	}
	return out
}
