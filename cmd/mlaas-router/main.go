// Command mlaas-router is the cluster front end: it consistent-hashes
// model keys over a fleet of mlaas-server replicas and proxies the
// public MLaaS API onto them with health-aware failover.
//
// Usage:
//
//	mlaas-router -replicas http://h1:8080,http://h2:8080[,...]
//	             [-addr :8070] [-replication 2] [-vnodes 128]
//	             [-probe-interval 1s] [-probe-timeout 500ms]
//	             [-breaker-failures 3] [-breaker-cooldown 2s] [-quiet]
//
// Every model trains on its R ring owners and stays cache-resident
// exactly there; predicts route to the primary owner and fail over down
// the owner list on any replica failure, including death mid-response.
// Bodies cross the router verbatim, so binary-frame predicts stay binary
// hop-to-hop. Replicas that probe down, report ready:false (boot warm
// scan still running), or trip the per-replica circuit breaker leave
// rotation until they recover; artifacts they missed are replayed onto
// them lazily on first need.
//
// The router's own /metrics exposes mlaas_router_requests_total
// {replica,outcome}, replica state-change (ring rebalance) counters,
// failover and repair counters. /healthz
// reports fleet state: one entry per replica with up/ready/breaker
// status, plus the available-replica count.
//
// Replicas of one cluster should share a -store-dir so a joining replica
// warms from the fleet's artifact directory instead of refitting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"mlaasbench/internal/cluster"
	"mlaasbench/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8070", "listen address")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs (required)")
	replication := flag.Int("replication", cluster.DefaultReplication,
		"ring owners per model key (R); each model is cache-resident on exactly R replicas")
	vnodes := flag.Int("vnodes", cluster.DefaultVirtualNodes, "virtual nodes per replica on the hash ring")
	probeInterval := flag.Duration("probe-interval", cluster.DefaultProbeInterval, "health probe period per replica")
	probeTimeout := flag.Duration("probe-timeout", cluster.DefaultProbeTimeout, "timeout for one health probe")
	breakerFailures := flag.Int("breaker-failures", cluster.DefaultBreakerFailures,
		"consecutive proxy failures that open a replica's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", cluster.DefaultBreakerCooldown,
		"how long an open breaker keeps a replica out of rotation before a trial request")
	quiet := flag.Bool("quiet", false, "suppress router logging")
	flag.Parse()

	urls := strings.Split(*replicas, ",")
	var clean []string
	for _, u := range urls {
		if u = strings.TrimSpace(u); u != "" {
			clean = append(clean, u)
		}
	}
	if len(clean) == 0 {
		log.Fatal("mlaas-router: -replicas is required (comma-separated base URLs)")
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	reg := telemetry.NewRegistry()
	telemetry.SetBuildInfo(reg)
	rt, err := cluster.NewRouter(clean,
		cluster.WithRegistry(reg),
		cluster.WithLogger(logf),
		cluster.WithReplication(*replication),
		cluster.WithVirtualNodes(*vnodes),
		cluster.WithBreaker(*breakerFailures, *breakerCooldown),
		cluster.WithProbeTimeout(*probeTimeout),
	)
	if err != nil {
		log.Fatalf("mlaas-router: %v", err)
	}
	stopProber := rt.StartProber(*probeInterval)
	defer stopProber()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	log.Printf("mlaas-router listening on %s over %d replicas (R=%d, %d vnodes; fleet health at /healthz)",
		*addr, len(clean), *replication, *vnodes)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
}
