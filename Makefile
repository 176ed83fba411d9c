# Standard pre-merge gate: `make check` runs gofmt and vet, the full test
# suite, the race detector over the concurrency-bearing packages (telemetry, service,
# client, wire, the parallel sweep engine in core/pipeline/platforms, and the
# pooled predict scratch in classifiers), a
# short loadgen smoke that exercises the serving path end-to-end, a wire
# smoke (binary-vs-JSON equivalence over a live server + decoder fuzz seed
# corpus), a perf-tracking smoke (mlaas-perf run/compare/report against
# perf/results/), a profiling smoke (bundle capture, then go tool pprof
# -top and -diff_base over the bundles, SLO watchdog tests under -race),
# and a cluster smoke (binary predict through the router, kill-one-replica
# failover, sharded-sweep-equals-serial, and a 2-replica scaling run), and a 3 s
# end-to-end benchmark smoke (benchmarks/run.sh on serve_trees: every op
# checked against the oracle), and last a stray-process check (no
# mlaas-*, v-server, pprof or go test binary may outlive the gate).
# CI (.github/workflows/ci.yml) and humans alike should run it before merging.

GO ?= go

RACE_PKGS := ./internal/telemetry ./internal/service ./internal/client \
	./internal/wire ./internal/pipeline ./internal/platforms ./internal/store \
	./internal/profiling ./internal/cluster

.PHONY: all build fmt vet test race check bench bench-quick bench-kernels bench-e2e bench-e2e-smoke loadgen-smoke trace-smoke wire-smoke store-smoke perf-smoke profile-smoke cluster-smoke no-strays perf-run perf-compare perf-report

all: check

build:
	$(GO) build ./...

# Fails on any file gofmt would rewrite (.bench_build/ holds the benchmark's
# own compiler cache, not source).
fmt:
	@out="$$(gofmt -l . | grep -v '^\.bench_build/' || true)"; \
	if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The core race run is restricted to the parallel-engine tests: racing the
# whole analysis suite re-runs the shared 8-dataset sweep under the race
# detector, which triples check time without exercising new interleavings.
# classifiers and linalg likewise race only what shares state between
# predicts: the pooled forward-pass scratch (kNN heaps and survivor cells
# reused across tiles, MLP row blocks) and the kernels that fill it.
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -run 'TestParallel|TestSweepCancellation' ./internal/core
	$(GO) test -race -run 'TestPredict|TestKNN|TestSquaredEuclidean|TestPresort' ./internal/classifiers ./internal/linalg

check: fmt vet test race bench-kernels loadgen-smoke trace-smoke wire-smoke store-smoke perf-smoke profile-smoke cluster-smoke bench-e2e-smoke no-strays

# Fails if any server, router, load generator or benchmark binary, go tool
# pprof, or go test binary (<pkg>.test -test.*) is still running — every
# target above (and every hand-started process) must stop what it starts.
# The brackets keep the pattern from matching the shell that runs it; run
# it on its own, not in a command line that itself names one of those
# binaries, or it matches that command line.
no-strays:
	@! pgrep -af '[v]-server|[m]laas-(server|router|loadgen|benchmark)|[p]kg/tool/[^ ]*/pprof|[.]test -test[.]'

# A ~2s end-to-end run of the closed-loop load generator against in-process
# servers: proves upload/train/predict and the refit-vs-forward comparison
# still work before merging. Full benchmark instructions: EXPERIMENTS.md.
loadgen-smoke:
	$(GO) run ./cmd/mlaas-loadgen -clients 2 -batch 32 -duration 1s

# Flight-recorder smoke: a ~2s traced loadgen run exports its trace JSONL
# and mlaas-trace must summarize a non-empty export — proves cross-process
# stitching, the ring buffer, and the analysis CLI end to end.
trace-smoke:
	$(GO) run ./cmd/mlaas-loadgen -clients 2 -batch 32 -duration 1s \
		-trace-out /tmp/mlaas-trace-smoke.jsonl >/dev/null
	$(GO) run ./cmd/mlaas-trace /tmp/mlaas-trace-smoke.jsonl

# Binary wire-path smoke: the JSON-oracle equivalence and negotiation tests
# over a live in-process server, the malformed-body cases (wrong width,
# garbage, truncation, forged zero-width frames — each a clean 400), the
# decoder fuzz seed corpus (one pass — malformed frames must error, never
# panic or over-allocate), and a short binary-codec loadgen
# run end to end. Extend the corpus with `go test -fuzz FuzzFrameDecoder
# ./internal/wire`.
wire-smoke:
	$(GO) test -count=1 -run 'TestBinaryPredict|TestAccept|TestMultiFrame|TestPredictRejects' ./internal/service
	$(GO) test -count=1 -run FuzzFrameDecoder ./internal/wire
	$(GO) run ./cmd/mlaas-loadgen -clients 2 -batch 32 -duration 1s -codec binary >/dev/null

# Artifact-store smoke: the MLDS/MLMF round-trip and corruption tests, both
# decoder fuzz seed corpora (corrupt artifacts must error, never panic), the
# restart-over-a-store-dir oracle (a restarted server never serves another
# dataset's artifact), TestWarmRestartServesFirstPredictWithoutRefit (a
# restart warmed from the store runs 0 fits and serves byte-identical
# labels) and the warm scan skipping undecodable artifacts, a cross-compile
# of the store package for a platform without the mmap fast path (the
# portable read path must build everywhere), and a convert->inspect CLI
# round trip.
store-smoke:
	$(GO) test -count=1 ./internal/store
	$(GO) test -count=1 -run 'FuzzDatasetDecoder|FuzzModelDecoder' ./internal/store
	$(GO) test -count=1 -run 'TestRestartOverStoreServesTheUploadedData|TestWarmRestartServesFirstPredictWithoutRefit|TestWarmScanSkipsUndecodableArtifacts' ./internal/service
	GOOS=windows GOARCH=amd64 $(GO) build ./internal/store
	$(GO) run ./cmd/mlaas-datasets convert -out /tmp/mlaas-mlds-smoke -name CIRCLE
	$(GO) run ./cmd/mlaas-datasets inspect -in /tmp/mlaas-mlds-smoke/CIRCLE.mlds >/dev/null

# Performance-tracking smoke: one single-iteration pass of the kernel trio
# through mlaas-perf, then a report-only diff against the committed history
# in perf/results/ and a trajectory render. Proves the run -> compare ->
# report loop end to end without gating on numbers (CI machines differ, so
# the diff is informational here; gate locally with `make perf-compare`).
perf-smoke:
	$(GO) run ./cmd/mlaas-perf run -count 1 -benchtime 1x -cv-gate 0 \
		-no-save -out /tmp/mlaas-perf-smoke.json
	$(GO) run ./cmd/mlaas-perf compare -candidate /tmp/mlaas-perf-smoke.json -report-only
	$(GO) run ./cmd/mlaas-perf report >/dev/null

# Continuous-profiling smoke: bundles captured during a loadgen pass are
# read by the toolchain's own reader — the bundle list, a top-10 of the
# latest CPU profile, and a first-vs-latest diff (at least two bundles) —
# plus the SLO watchdog's window arithmetic and trigger path under the
# race detector. (The full e2e — breach-triggered capture with trace refs,
# hot-symbol diff through go tool pprof — runs in `make test` via
# internal/profiling; this target proves the operator-facing loop.)
profile-smoke:
	rm -rf /tmp/mlaas-smoke-profiles
	$(GO) run ./cmd/mlaas-loadgen -clients 2 -batch 32 -duration 1s \
		-profile-dir /tmp/mlaas-smoke-profiles >/dev/null
	ls /tmp/mlaas-smoke-profiles
	d=/tmp/mlaas-smoke-profiles; first=$$(ls $$d | head -n 1); latest=$$(ls $$d | tail -n 1); \
	test "$$first" != "$$latest" && \
	$(GO) tool pprof -top -nodecount 10 $$d/$$latest/cpu.pprof && \
	$(GO) tool pprof -top -nodecount 5 -diff_base $$d/$$first/cpu.pprof $$d/$$latest/cpu.pprof
	$(GO) test -race -count=1 -run 'TestBurnWindow|TestWatchdog|TestSLOBreach' ./internal/profiling

# Cluster-serving smoke: binary-codec predicts through the router must
# match a single-process server byte-for-byte, every request must survive
# one of three replicas dying (failover + lazy repair, also over a shared
# store dir), a restarted router must hand back the same ids on re-upload
# without a refit, a predict must go to the idle owner while another owner
# is busy (least-loaded routing), and a fleet-sharded sweep must merge
# byte-identically to a serial one. The 1/2/4-replica scaling record in
# perf/results/ (label pr10-cluster) is history: the mode that produced
# it is gone; EXPERIMENTS.md keeps its method and numbers.
cluster-smoke:
	$(GO) test -count=1 -run 'TestRouterBinaryPredictMatchesDirect|TestRouterFailoverKillOneOfThree|TestRouterLazyRepair|TestRouterRepairOverSharedStore|TestRouterRestartReuploadSameIDs|TestRouterPredictPrefersIdleOwner|TestRingGolden' ./internal/cluster
	$(GO) test -count=1 -run 'TestFleetSweepByteIdentical/replicas=3' ./internal/core

# A real measured run appended to the committed history (5 rounds, CV-gated
# reruns). Commit the new perf/results/ file with the change it measures.
perf-run:
	$(GO) run ./cmd/mlaas-perf run -label $(or $(LABEL),dev)

# Gate: latest committed record vs the one before it; exits 2 on regression.
perf-compare:
	$(GO) run ./cmd/mlaas-perf compare

perf-report:
	$(GO) run ./cmd/mlaas-perf report

# The serial-vs-parallel sweep-engine pair (BenchmarkSweepSerial /
# BenchmarkSweepParallel4); results are committed as BENCH_*.json.
bench:
	$(GO) test -bench=Sweep -benchmem -run '^$$' .

# A fast smoke sweep with the telemetry summary, for eyeballing where the
# time goes.
bench-quick:
	$(GO) run ./cmd/mlaas-bench -datasets 5 table2 timecost

# One-iteration smoke of the batch compute kernels (blocked GEMM, batch
# forward pass, batched distances): proves the benchmarks still compile and
# run, not a measurement. Real numbers (-benchtime=1s interleaved A/B) are
# committed as BENCH_PR5.json; method in EXPERIMENTS.md.
bench-kernels:
	$(GO) test -run '^$$' -bench 'BenchmarkGEMM$$|MLPForwardBatch|KNNPredictBatch' \
		-benchtime 1x ./internal/linalg ./internal/classifiers

# The repository's end-to-end benchmark (BENCHMARK.json; method and metric
# definitions in benchmarks/README.md): five workloads, three fresh-process
# repetitions each, every op checked against an in-process oracle. ~3 min.
bench-e2e:
	bash benchmarks/run.sh

# A 3 s pass over one workload: proves the driver still builds against the
# public functions it drives and that served predictions still match the
# oracle ("correct": true on the last line). Not a measurement.
bench-e2e-smoke:
	bash benchmarks/run.sh --workload serve_trees --seconds 3 | tail -n 1 | grep -q '"correct":true'
