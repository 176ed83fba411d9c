// Command mlaas-server hosts the simulated MLaaS platforms over HTTP.
//
// Usage:
//
//	mlaas-server [-addr :8080] [-quiet] [-pprof 127.0.0.1:6060] [-model-cache 128]
//	             [-predict-shards 0] [-admit-concurrency 0] [-admit-queue 64]
//	             [-store-dir artifacts/] [-serve-budget 0] [-log-format text|json]
//	             [-log-level debug|info|warn|error] [-slow-request 250ms]
//	             [-health-interval 5s]
//	             [-profile-dir profiles/] [-profile-interval 1m] [-profile-cpu 1s]
//	             [-profile-max 32] [-slo-latency 50ms] [-slo-target 0.99]
//	             [-slo-error-target 0.999] [-slo-window 1m] [-slo-burn 1]
//	             [-slo-queue-depth 32] [-slo-interval 5s]
//
// -profile-dir turns on the continuous profiler: every -profile-interval
// it captures CPU/heap/mutex/block/goroutine profiles into a bounded
// on-disk ring of bundles, each with a JSON sidecar carrying the env
// fingerprint, a runtime health snapshot and the slowest retained traces
// of the window. The -slo-* flags add a watchdog that computes rolling
// burn rates over the predict route's latency/error metrics (and the
// admission queue depth) and triggers an immediate tagged capture on
// breach. Bundles are standard pprof files: read them with go tool pprof,
// locally or after fetching them from /debug/profiles.
//
// -store-dir attaches a durable artifact store (MLMF files) beneath the
// model cache: every fitted model is persisted, evicted models demote to
// disk instead of dropping, and the cache warms from the directory at boot,
// so a restarted server serves its first predictions as pure forward passes
// with zero refits (store counters are on /metrics).
//
// -predict-shards splits each predict request's forward pass across that
// many row shards (0 = one per CPU, 1 = serial). Predictions are
// byte-identical at any setting; only latency changes.
//
// -admit-concurrency bounds how many predict requests execute at once;
// -admit-queue bounds how many more may wait for a slot. Load beyond both
// is shed immediately with 503 + Retry-After so goodput stays flat past
// saturation instead of collapsing (admission counters are on /metrics).
//
// The predict endpoint speaks two codecs, negotiated per request: the
// default JSON body, and the binary frame format in internal/wire
// (Content-Type/Accept: application/x-mlaas-frames) — raw little-endian
// float64 rows in, int64 labels out, byte-identical predictions across
// codecs. See the README "Wire protocol" section.
//
// The API mirrors the 2016-era services the paper measured:
//
//	GET  /v1/platforms
//	GET  /v1/platforms/{platform}/surface
//	POST /v1/platforms/{platform}/datasets          (JSON or text/csv)
//	POST /v1/platforms/{platform}/models
//	POST /v1/platforms/{platform}/models/{id}/predictions
//
// Observability endpoints ride on the same listener:
//
//	GET /metrics           Prometheus text exposition
//	GET /metrics.json      snapshot with p50/p95/p99 per histogram
//	GET /debug/traces      flight-recorder index (retained trace summaries)
//	GET /debug/traces/{id} one retained trace as its full span tree
//	GET /debug/profiles              profile bundle index (sidecars)
//	GET /debug/profiles/{id}         one bundle's sidecar
//	GET /debug/profiles/{id}/{kind}  raw .pprof (cpu, heap, mutex, block, goroutine)
//	GET /healthz           liveness + uptime + build/env fingerprint +
//	                       admission queue depth + disk-tier counters
//
// /metrics additionally carries mlaas_build_info (constant-1 gauge whose
// labels identify go version, GOMAXPROCS, NumCPU and git SHA) and, when
// -health-interval > 0, a runtime health sampler: goroutine count, heap
// in-use, allocation rate, GC cycle count, GC pause histogram and a
// scheduler-latency proxy (timer overshoot on a 1ms sleep probe).
//
// Every request logs one structured record (log/slog) stamped with its
// request and trace ids; -log-level debug shows them all, and requests
// slower than -slow-request escalate to Warn at any level.
//
// -pprof mounts net/http/pprof on a separate (private) listener so
// profiling is never exposed on the public API address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"time"

	"mlaasbench/internal/linalg"
	"mlaasbench/internal/profiling"
	"mlaasbench/internal/service"
	"mlaasbench/internal/store"
	"mlaasbench/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	quiet := flag.Bool("quiet", false, "suppress request logging")
	pprofAddr := flag.String("pprof", "", "mount net/http/pprof on this private address (e.g. 127.0.0.1:6060); empty disables")
	modelCache := flag.Int("model-cache", service.DefaultModelCacheModels,
		"max fitted models kept resident (LRU); 0 disables the cache and refits per predict")
	predictShards := flag.Int("predict-shards", 0,
		"row shards per predict request's forward pass (0 = one per CPU, 1 = serial); predictions are byte-identical at any setting")
	logFormat := flag.String("log-format", "text", "structured request log format: text or json")
	logLevel := flag.String("log-level", "info", "minimum structured log level: debug, info, warn or error")
	slowReq := flag.Duration("slow-request", 250*time.Millisecond,
		"requests slower than this log at Warn; 0 disables the escalation")
	healthInterval := flag.Duration("health-interval", 5*time.Second,
		"runtime health sampling interval (goroutines, heap, GC pauses, sched latency); 0 disables the sampler")
	admitConcurrency := flag.Int("admit-concurrency", 0,
		"max predict requests executing at once; excess queues up to -admit-queue, then sheds with 503 + Retry-After (0 disables admission control)")
	admitQueue := flag.Int("admit-queue", service.DefaultAdmissionQueue,
		"max predict requests waiting for an execution slot before load shedding starts")
	storeDir := flag.String("store-dir", "",
		"directory for durable MLMF model artifacts; fitted models persist there, evictions demote to disk, and the cache warms from it at boot (empty disables); replicas of one cluster share a directory so joiners warm from the fleet's artifacts")
	serveBudget := flag.Float64("serve-budget", 0,
		"cap the predict route at this many requests per second, modelling a fixed-size serving node for cluster scaling runs (0 = uncapped)")
	profileDir := flag.String("profile-dir", "",
		"directory for continuous-profiler bundles (CPU/heap/mutex/block/goroutine + sidecar); served at /debug/profiles; read with go tool pprof -top <bundle>/cpu.pprof, or remotely after curl <addr>/debug/profiles/<bundle>/cpu -o cpu.pprof (empty disables)")
	profileInterval := flag.Duration("profile-interval", time.Minute,
		"period between periodic profile captures; 0 captures only on SLO breaches")
	profileCPU := flag.Duration("profile-cpu", time.Second,
		"CPU sampling window per capture (clamped to half the interval)")
	profileMax := flag.Int("profile-max", 32,
		"max profile bundles kept on disk (oldest pruned first)")
	sloLatency := flag.Duration("slo-latency", 0,
		"predict latency objective; requests slower than this spend error budget (0 disables the latency SLO)")
	sloTarget := flag.Float64("slo-target", 0.99,
		"fraction of predict requests that must meet -slo-latency (0.99 = 1% error budget)")
	sloErrorTarget := flag.Float64("slo-error-target", 0,
		"fraction of predict requests that must not be 5xx, e.g. 0.999 (0 disables the error SLO)")
	sloWindow := flag.Duration("slo-window", time.Minute,
		"rolling window the SLO burn rates are computed over")
	sloBurn := flag.Float64("slo-burn", 1,
		"burn rate above which the watchdog triggers a profile capture (1 = budget consumed exactly at the allowed rate)")
	sloQueueDepth := flag.Int64("slo-queue-depth", 0,
		"admission queue depth above which the watchdog triggers (0 disables the queue SLO)")
	sloInterval := flag.Duration("slo-interval", 5*time.Second,
		"how often the watchdog evaluates the SLOs")
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		log.Fatalf("mlaas-server: %v", err)
	}
	// Kernel durations feed the same registry /metrics scrapes, so GEMM
	// and distance time per predict shows up next to the stage histograms.
	linalg.SetKernelHook(func(kernel string, seconds float64) {
		telemetry.Default().Histogram(telemetry.KernelHistogram, "kernel", kernel).Observe(seconds)
	})
	// Build identity and runtime health ride the same /metrics exposition:
	// mlaas_build_info pins which binary produced a scrape, the sampler
	// keeps goroutine/heap/GC-pause series current between requests.
	telemetry.SetBuildInfo(telemetry.Default())
	if *healthInterval > 0 {
		stopHealth := telemetry.StartHealthSampler(telemetry.Default(), *healthInterval)
		defer stopHealth()
	}
	api := service.NewServer(logf).
		WithModelCache(*modelCache).
		WithPredictShards(*predictShards).
		WithAdmission(*admitConcurrency, *admitQueue).
		WithServeBudget(*serveBudget).
		WithLogger(logger).
		WithSlowRequestThreshold(*slowReq)
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatalf("mlaas-server: %v", err)
		}
		api = api.WithStore(st)
		start := time.Now()
		n, err := api.WarmFromStore()
		if err != nil {
			log.Fatalf("mlaas-server: warm from %s: %v", *storeDir, err)
		}
		log.Printf("mlaas-server warmed %d models from %s in %s", n, *storeDir, time.Since(start).Round(time.Millisecond))
	}
	// Continuous profiling + SLO watchdog: periodic capture bundles land
	// in -profile-dir (served at /debug/profiles), and when any SLO
	// dimension is enabled, breaches trigger an immediate tagged capture.
	if *profileDir != "" {
		prof, err := profiling.New(profiling.Config{
			Dir:         *profileDir,
			Interval:    *profileInterval,
			CPUDuration: *profileCPU,
			MaxBundles:  *profileMax,
		})
		if err != nil {
			log.Fatalf("mlaas-server: %v", err)
		}
		api = api.WithProfileStore(prof.Store())
		if *sloLatency > 0 || *sloErrorTarget > 0 || *sloQueueDepth > 0 {
			wd, err := profiling.NewWatchdog(profiling.WatchdogConfig{
				SLOs: []profiling.SLO{{
					Name:             "predict",
					Route:            "predict",
					LatencyObjective: sloLatency.Seconds(),
					LatencyTarget:    *sloTarget,
					ErrorTarget:      *sloErrorTarget,
					MaxBurn:          *sloBurn,
					MaxQueueDepth:    *sloQueueDepth,
					Window:           *sloWindow,
				}},
				Interval: *sloInterval,
			})
			if err != nil {
				log.Fatalf("mlaas-server: %v", err)
			}
			wd.Watch(prof)
			wd.Start()
			defer wd.Stop()
			log.Printf("mlaas-server SLO watchdog on predict (latency %s @ %.3f, errors @ %.3f, queue > %d, window %s, max burn %.1f)",
				*sloLatency, *sloTarget, *sloErrorTarget, *sloQueueDepth, *sloWindow, *sloBurn)
		}
		prof.Start()
		defer prof.Stop()
		log.Printf("mlaas-server profiling into %s every %s (bundles at /debug/profiles; read with go tool pprof)", *profileDir, *profileInterval)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *pprofAddr != "" {
		go servePprof(*pprofAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
	}()

	log.Printf("mlaas-server listening on %s (metrics at /metrics, health at /healthz)", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
}

// buildLogger constructs the slog request logger from the CLI flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
	}
}

// servePprof exposes the standard pprof handlers on their own mux and
// listener, keeping the profiling surface off the API address.
func servePprof(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Printf("pprof serve: %v", err)
		return
	}
	log.Printf("pprof listening on %s/debug/pprof/", ln.Addr())
	pprofSrv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := pprofSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("pprof serve: %v", err)
	}
}
