package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mlaasbench/internal/client"
	"mlaasbench/internal/cluster"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/metrics"
	"mlaasbench/internal/pipeline"
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
	// Dataset generation stays local: the unit needs the split for upload
	// bodies, query instances and held-out labels. The FEAT cache is the
	// replica's business, so the local one goes unused.
	return runSweep(ctx, opts, func(pl *pool, plan unitPlan, sp dataset.Split, dsName string, opts Options, _ *pipeline.FeatCache) []Measurement {
		owner := ring.Owner("unit/" + plan.platform.Name() + "/" + dsName)
		return runUnitRemote(pl, clients[owner], plan, sp, dsName, opts)
	})
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
		out[i] = plan.measurement(cfg, dsName, scores, labels, start, opts)
	}
	return out
}
