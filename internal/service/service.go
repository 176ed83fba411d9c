// Package service exposes the simulated MLaaS platforms over HTTP, mirroring
// the query interface the paper measured through (§3.2: "we leverage web
// APIs provided by the platforms, allowing us to automate experiments").
//
// The API is deliberately shaped like the 2016-era services:
//
//	GET  /v1/platforms                            → list platforms + controls
//	GET  /v1/platforms/{p}/surface                → control surface detail
//	POST /v1/platforms/{p}/datasets               → upload a training dataset
//	POST /v1/platforms/{p}/models                 → train a model (black boxes
//	                                                ignore the config, like the
//	                                                real 1-click services)
//	POST /v1/platforms/{p}/models/{id}/predictions → query predictions
//
// Ids are content addresses: a dataset id is a hash of the dataset's bytes
// and a model id is a hash of its (platform, dataset id, config, seed)
// description. The training substrate is deterministic, so an id always
// means the same data or model — across uploads, server restarts, and every
// replica of a cluster — and upload and train are idempotent. Serving,
// however, is fit-once: training a model fits the full pipeline
// immediately and parks the fitted artifact (transform state, classifier
// weights, hidden preprocessing) in a bounded LRU, so prediction is a pure
// forward pass — the shape of real MLaaS serving (cf. Clipper's model
// containers, TensorFlow-Serving's loaded servables). Evicted models
// transparently reload or refit from their description on the next
// request, so cache state never affects answers, only latency.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/store"
	"mlaasbench/internal/telemetry"
	"mlaasbench/internal/wire"
)

// Server hosts every simulated platform under one HTTP handler.
type Server struct {
	mu       sync.RWMutex
	plats    map[string]platforms.Platform
	datasets map[string]*datasetEntry // key: platform/id
	models   map[string]*storedModel  // key: platform/id
	logf     func(format string, args ...any)
	reg      *telemetry.Registry
	started  time.Time
	fits     *modelCache
	logger   *slog.Logger
	slowReq  time.Duration
	// predictShards bounds the goroutines one predict request's forward
	// pass fans its rows across (0 = one per CPU, 1 = serial).
	predictShards int
	// admit, when non-nil, gates the predict route behind a bounded
	// admission queue; excess load is shed with 503 + Retry-After.
	admit *admission
	// notReady is set while the server cannot yet serve at full fidelity
	// (boot warm scan still running); /healthz reports ready:false and
	// cluster routers keep the replica out of rotation. Zero value =
	// ready, so servers without a disk tier are born ready.
	notReady atomic.Bool
}

// datasetEntry is one uploaded dataset with the training views derived from
// it — fitted FEAT transforms and the tree learners' column presorts —
// memoized lazily and shared read-only by every train and refit on it. The
// views live exactly as long as the entry.
type datasetEntry struct {
	data  *dataset.Dataset
	views *pipeline.FeatCache
}

// storedModel is the durable description of a model; the fitted artifact it
// resolves to lives in the server's modelCache under key.
type storedModel struct {
	ds     *datasetEntry
	config pipeline.Config
	seed   uint64
	key    string // modelKey, computed once at train
}

// modelKey is the fit-cache and disk-tier identity: everything that
// determines the trained artifact in the deterministic substrate. The
// dataset id is itself a content hash, so equal keys mean equal models in
// every process that ever computed them.
func modelKey(platform, datasetID string, cfg pipeline.Config, seed uint64) string {
	return fmt.Sprintf("%s/%s/%s/%d", platform, datasetID, cfg.String(), seed)
}

// contentID names an artifact by its bytes: prefix plus the first 128 bits
// of their SHA-256, hex-encoded.
func contentID(prefix string, b []byte) string {
	sum := sha256.Sum256(b)
	return prefix + hex.EncodeToString(sum[:16])
}

// NewServer constructs a server hosting all platforms. logf defaults to
// log.Printf; pass a no-op to silence request logging. Metrics record into
// the process-wide telemetry.Default() registry (so in-process pipeline
// stage timings and HTTP metrics share one /metrics page); use WithRegistry
// for an isolated registry.
func NewServer(logf func(format string, args ...any)) *Server {
	if logf == nil {
		logf = log.Printf
	}
	s := &Server{
		plats:    map[string]platforms.Platform{},
		datasets: map[string]*datasetEntry{},
		models:   map[string]*storedModel{},
		logf:     logf,
		reg:      telemetry.Default(),
		started:  time.Now(),
	}
	for _, p := range platforms.All() {
		s.plats[p.Name()] = p
	}
	s.fits = newModelCache(DefaultModelCacheModels, func() *telemetry.Registry { return s.reg })
	return s
}

// WithRegistry redirects the server's metrics into reg and returns the
// server (chainable). Tests use it to isolate counters per server.
func (s *Server) WithRegistry(reg *telemetry.Registry) *Server {
	s.reg = reg
	return s
}

// WithLogger attaches a structured logger and returns the server
// (chainable). When set, every request emits a Debug record stamped with
// its request and trace ids, and requests slower than the
// WithSlowRequestThreshold value are escalated to Warn.
func (s *Server) WithLogger(l *slog.Logger) *Server {
	s.logger = l
	return s
}

// WithSlowRequestThreshold sets the latency above which a request logs at
// Warn instead of Debug (chainable). Zero disables slow-request escalation.
func (s *Server) WithSlowRequestThreshold(d time.Duration) *Server {
	s.slowReq = d
	return s
}

// WithModelCache bounds the fitted-model LRU to n models and returns the
// server (chainable). Zero disables residency entirely — every predict
// refits from the model description, the pre-cache behaviour, against which
// the serving tests check the cached path.
func (s *Server) WithModelCache(n int) *Server {
	s.fits.setCapacity(n)
	return s
}

// WithStore attaches a disk tier beneath the fitted-model LRU and returns
// the server (chainable). Every fitted model is persisted as an MLMF
// artifact, evicted models demote to disk instead of dropping, and cache
// fills load from disk before paying for a fit. Call before serving starts.
//
// Attaching a store marks the server not ready until WarmFromStore
// completes: a replica that would refit everything from scratch should
// not take cluster traffic while its warm scan is still loading
// artifacts.
func (s *Server) WithStore(st *store.Store) *Server {
	s.fits.store = st
	s.notReady.Store(true)
	return s
}

// WarmFromStore fills the model cache from the attached disk tier, up to
// the cache capacity, and returns how many models were loaded. A warmed key
// serves its first predict as a pure forward pass — no refit, miss count
// zero. Artifacts that do not decode (corrupt, or written by an older
// format version) are skipped, logged and counted, never fatal. Call at
// boot, before serving starts; on success the server becomes ready
// (/healthz ready:true) and routers admit it to rotation.
func (s *Server) WarmFromStore() (int, error) {
	n, skipped, err := s.fits.warm()
	for _, e := range skipped {
		s.logf("service: warm scan skipped %v", e)
	}
	if err == nil {
		s.notReady.Store(false)
	}
	return n, err
}

// Ready reports whether the server is ready for cluster traffic (the
// boot warm scan, if any, has completed).
func (s *Server) Ready() bool { return !s.notReady.Load() }

// WithPredictShards bounds how many goroutines one predict request's
// forward pass may fan its instance rows across and returns the server
// (chainable). Zero (the default) means one shard per CPU; one forces the
// serial path. Small batches never split regardless (see
// pipeline.ShardCount), and predictions are byte-identical at any setting.
func (s *Server) WithPredictShards(n int) *Server {
	s.predictShards = n
	return s
}

// ResidentModels reports how many fitted models the cache currently holds.
func (s *Server) ResidentModels() int { return s.fits.size() }

// Registry returns the telemetry registry the server records into.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Handler returns the HTTP handler for the MLaaS API, with every route
// instrumented: per-route/per-platform request counters by status class,
// an in-flight gauge, latency histograms, and X-Request-ID propagation.
func (s *Server) Handler() http.Handler {
	s.describeMetrics()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/platforms", s.instrument("list_platforms", s.handleListPlatforms))
	mux.HandleFunc("GET /v1/platforms/{platform}/surface", s.instrument("surface", s.handleSurface))
	mux.HandleFunc("POST /v1/platforms/{platform}/datasets", s.instrument("upload", s.handleUpload))
	mux.HandleFunc("POST /v1/platforms/{platform}/models", s.instrument("train", s.handleTrain))
	mux.HandleFunc("POST /v1/platforms/{platform}/models/{model}/predictions", s.instrument("predict", s.admitted(s.handlePredict)))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /debug/traces", s.handleTraceIndex)
	mux.HandleFunc("GET /debug/traces/{trace}", s.handleTraceGet)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func (s *Server) describeMetrics() {
	s.reg.Describe("mlaas_http_requests_total", "HTTP requests by route, platform and status class.")
	s.reg.Describe("mlaas_http_request_duration_seconds", "HTTP request latency by route.")
	s.reg.Describe("mlaas_http_in_flight", "Requests currently being served.")
	s.reg.Describe(telemetry.ModelCacheHits, "Fitted-model cache hits (resident model served).")
	s.reg.Describe(telemetry.ModelCacheMisses, "Fitted-model cache misses (model fitted).")
	s.reg.Describe(telemetry.ModelCacheEvictions, "Fitted models evicted from the LRU (refit on next use).")
	s.reg.Describe(telemetry.ModelCacheCoalesced, "Requests that waited on an identical in-flight fit.")
	s.reg.Describe(telemetry.PredictPathHistogram, "Predict latency split by serving path (forward vs refit).")
	s.reg.Describe(telemetry.PredictBatchSizeHistogram, "Instances per predict request (rows, power-of-two buckets).")
	s.reg.Describe(telemetry.CodecRequestsTotal, "Predict requests by wire codec (json or binary).")
	s.reg.Describe(telemetry.WireFrameBytesHistogram, "Binary frame sizes in bytes, by direction (rx or tx).")
	s.reg.Describe(telemetry.AdmissionAdmittedTotal, "Requests admitted past the admission queue, by route.")
	s.reg.Describe(telemetry.AdmissionShedTotal, "Requests shed with 503 + Retry-After, by route.")
	s.reg.Describe(telemetry.AdmissionQueueDepth, "Requests currently waiting in the admission queue, by route.")
	s.reg.Describe(telemetry.StoreHits, "Model-cache misses served by loading a disk artifact instead of refitting.")
	s.reg.Describe(telemetry.StoreMisses, "Model-cache misses with no disk artifact (fit ran, artifact persisted).")
	s.reg.Describe(telemetry.StoreDemotions, "Evicted models demoted to disk artifacts.")
	s.reg.Describe(telemetry.StoreWarmLoads, "Models warmed into the cache from disk at boot.")
	s.reg.Describe(telemetry.StoreSkipped, "Disk artifacts the boot warm scan could not decode and skipped.")
	s.reg.Describe(telemetry.StoreLoadHistogram, "Disk artifact load duration in seconds, by op (hit or warm).")
}

// statusWriter captures the response status code for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

func codeClass(code int) string {
	switch {
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// instrument wraps a handler with the telemetry middleware. The route label
// is static per registration; the platform label comes from the request
// path ("" for platform-less routes).
//
// Each request runs under an "http:<route>" span recorded into the server's
// registry. When the caller sent a Traceparent header the span joins the
// caller's trace — the cross-process stitch that lets one client retry show
// up as sibling attempts under one rpc span — and the response echoes the
// server span's own trace context so callers can look the trace up at
// /debug/traces/{id}.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	spanName := "http:" + route
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get(telemetry.RequestIDHeader)
		if reqID == "" {
			reqID = telemetry.NewRequestID()
		}
		w.Header().Set(telemetry.RequestIDHeader, reqID)
		ctx := telemetry.WithRequestID(r.Context(), reqID)
		ctx = telemetry.WithRegistry(ctx, s.reg)
		if tid, sid, ok := telemetry.ParseTraceParent(r.Header.Get(telemetry.TraceParentHeader)); ok {
			ctx = telemetry.WithRemoteParent(ctx, tid, sid)
		}
		ctx, span := telemetry.StartSpan(ctx, spanName)
		span.SetAttr("route", route).SetAttr("request_id", reqID)
		if p := r.PathValue("platform"); p != "" {
			span.SetAttr("platform", p)
		}
		w.Header().Set(telemetry.TraceParentHeader, telemetry.FormatTraceParent(span.TraceID(), span.SpanID()))
		r = r.WithContext(ctx)

		inFlight := s.reg.Gauge("mlaas_http_in_flight")
		inFlight.Inc()
		defer inFlight.Dec()

		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(sw, r)
		dur := time.Since(start)
		span.SetAttr("status", strconv.Itoa(sw.code))
		if sw.code >= 500 {
			span.SetError(fmt.Errorf("http %d", sw.code))
		}
		span.End()
		s.reg.Histogram("mlaas_http_request_duration_seconds", "route", route).
			Observe(dur.Seconds())
		s.reg.Counter("mlaas_http_requests_total",
			"route", route,
			"platform", r.PathValue("platform"),
			"class", codeClass(sw.code)).Inc()
		if s.logger != nil {
			lvl, msg := slog.LevelDebug, "request"
			if s.slowReq > 0 && dur >= s.slowReq {
				lvl, msg = slog.LevelWarn, "slow request"
			}
			s.logger.Log(ctx, lvl, msg,
				"route", route,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.code,
				"duration_ms", float64(dur)/float64(time.Millisecond),
				"request_id", reqID,
				"trace_id", span.TraceID(),
			)
		}
	}
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

// handleMetricsJSON serves the registry snapshot with precomputed
// p50/p95/p99 per histogram series.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

// handleTraceIndex serves the flight recorder's index: one summary line per
// retained trace, newest first.
func (s *Server) handleTraceIndex(w http.ResponseWriter, _ *http.Request) {
	sums := s.reg.Traces().Summaries()
	if sums == nil {
		sums = []telemetry.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, sums)
}

// handleTraceGet serves one retained trace as its full span tree.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("trace")
	td, ok := s.reg.Traces().Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: fmt.Sprintf("trace %q not retained (evicted, sampled out, or never seen)", id)})
		return
	}
	writeJSON(w, http.StatusOK, td)
}

// HealthResponse is the GET /healthz body. Beyond liveness it carries the
// build/environment fingerprint (go version, GOMAXPROCS, NumCPU, git SHA
// when the binary was VCS-stamped), so any number scraped alongside it is
// attributable to the machine and toolchain that produced it — plus the
// two signals a saturation probe needs without parsing /metrics: the
// predict admission queue depth and the disk-tier traffic counters.
type HealthResponse struct {
	Status string `json:"status"`
	// Ready is false while the boot warm scan is still loading artifacts
	// from the disk tier — alive but not fit for cluster traffic. The
	// cluster router keeps not-ready replicas out of rotation.
	Ready          bool    `json:"ready"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	Platforms      int     `json:"platforms"`
	ResidentModels int     `json:"resident_models"`
	GoVersion      string  `json:"go_version"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NumCPU         int     `json:"num_cpu"`
	GitSHA         string  `json:"git_sha,omitempty"`
	// AdmissionQueueDepth is how many predict requests are waiting for an
	// execution slot right now (always 0 with admission control off).
	AdmissionQueueDepth int64 `json:"admission_queue_depth"`
	// Store mirrors the disk-tier counters from /metrics; all zero when
	// no -store-dir is attached.
	Store StoreHealth `json:"store"`
}

// StoreHealth is the disk-tier counter block inside HealthResponse.
type StoreHealth struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Demotions int64 `json:"demotions"`
	WarmLoads int64 `json:"warm_loads"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	fp := telemetry.Fingerprint()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:              "ok",
		Ready:               s.Ready(),
		UptimeSeconds:       time.Since(s.started).Seconds(),
		Platforms:           len(s.plats),
		ResidentModels:      s.fits.size(),
		GoVersion:           fp.GoVersion,
		GOMAXPROCS:          fp.GOMAXPROCS,
		NumCPU:              fp.NumCPU,
		GitSHA:              fp.GitSHA,
		AdmissionQueueDepth: s.reg.Gauge(telemetry.AdmissionQueueDepth, "route", "predict").Value(),
		Store: StoreHealth{
			Hits:      s.reg.Counter(telemetry.StoreHits).Value(),
			Misses:    s.reg.Counter(telemetry.StoreMisses).Value(),
			Demotions: s.reg.Counter(telemetry.StoreDemotions).Value(),
			WarmLoads: s.reg.Counter(telemetry.StoreWarmLoads).Value(),
		},
	})
}

// apiError is the uniform error envelope. RequestID carries the request's
// correlation id so clients can match an error to server-side logs; Code,
// when present, is a stable machine-readable discriminator (load
// generators key on it to split sheds from malformed payloads without
// parsing prose).
type apiError struct {
	Error     string `json:"error"`
	Code      string `json:"code,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// Stable error codes for the predict path. Error responses are always the
// JSON envelope regardless of the negotiated body codec.
const (
	codeBadRowWidth = "bad_row_width"
	codeBadPayload  = "bad_payload"
	codeNoInstances = "no_instances"
	codeOverloaded  = "overloaded"
)

func (s *Server) fail(w http.ResponseWriter, r *http.Request, code int, format string, args ...any) {
	s.failCode(w, r, code, "", format, args...)
}

func (s *Server) failCode(w http.ResponseWriter, r *http.Request, code int, errCode, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	reqID := telemetry.RequestID(r.Context())
	s.logf("service: %d %s (request %s)", code, msg, reqID)
	writeJSON(w, code, apiError{Error: msg, Code: errCode, RequestID: reqID})
}

// jsonBufPool recycles JSON encode/decode buffers across requests: the
// predict hot path would otherwise allocate a fresh scratch buffer per
// request. Buffers that grew past maxPooledBuf are dropped on return so one
// huge batch cannot pin memory for the life of the pool.
const maxPooledBuf = 1 << 20

var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer {
	b := jsonBufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		jsonBufPool.Put(b)
	}
}

// readJSON decodes a request body through a pooled buffer.
func readJSON(r io.Reader, v any) error {
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// writeJSON encodes through a pooled buffer, then writes in one shot.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

// PlatformInfo is the directory entry for one platform.
type PlatformInfo struct {
	Name        string `json:"name"`
	Complexity  int    `json:"complexity"`
	BlackBox    bool   `json:"black_box"`
	Classifiers int    `json:"classifiers"`
	FeatOptions int    `json:"feat_options"`
}

func (s *Server) handleListPlatforms(w http.ResponseWriter, _ *http.Request) {
	var out []PlatformInfo
	for _, name := range platforms.Names() {
		p := s.plats[name]
		surf := p.Surface()
		out = append(out, PlatformInfo{
			Name:        p.Name(),
			Complexity:  p.Complexity(),
			BlackBox:    p.BaselineClassifier() == "",
			Classifiers: len(surf.Classifiers),
			FeatOptions: len(surf.Feats),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// SurfaceDoc describes one platform's user-visible controls.
type SurfaceDoc struct {
	Platform    string          `json:"platform"`
	Feats       []string        `json:"feats"`
	Classifiers []ClassifierDoc `json:"classifiers"`
}

// ClassifierDoc documents one classifier's tunable parameters.
type ClassifierDoc struct {
	Name   string     `json:"name"`
	Params []ParamDoc `json:"params"`
}

// ParamDoc documents one tunable parameter.
type ParamDoc struct {
	Name    string `json:"name"`
	Kind    string `json:"kind"` // "categorical" | "numeric"
	Options []any  `json:"options,omitempty"`
	Default any    `json:"default"`
}

func (s *Server) handleSurface(w http.ResponseWriter, r *http.Request) {
	p, ok := s.platform(r)
	if !ok {
		s.fail(w, r, http.StatusNotFound, "unknown platform %q", r.PathValue("platform"))
		return
	}
	surf := p.Surface()
	doc := SurfaceDoc{Platform: p.Name()}
	for _, f := range surf.Feats {
		doc.Feats = append(doc.Feats, f.String())
	}
	for _, cs := range surf.Classifiers {
		cd := ClassifierDoc{Name: cs.Name}
		for _, ps := range cs.Params {
			kind := "numeric"
			if ps.Kind == classifiers.Categorical {
				kind = "categorical"
			}
			cd.Params = append(cd.Params, ParamDoc{
				Name:    ps.Name,
				Kind:    kind,
				Options: ps.Options,
				Default: ps.DefaultValue(),
			})
		}
		doc.Classifiers = append(doc.Classifiers, cd)
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) platform(r *http.Request) (platforms.Platform, bool) {
	p, ok := s.plats[r.PathValue("platform")]
	return p, ok
}

// UploadRequest carries a dataset as JSON. CSV uploads use Content-Type
// text/csv with the dataset.WriteCSV layout as the body.
type UploadRequest struct {
	Name string      `json:"name"`
	X    [][]float64 `json:"x"`
	Y    []int       `json:"y"`
}

// UploadResponse returns the dataset's content id ("ds-" + 32 hex digits):
// uploading the same dataset again returns the same id.
type UploadResponse struct {
	ID      string `json:"id"`
	Samples int    `json:"samples"`
	Columns int    `json:"columns"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	p, ok := s.platform(r)
	if !ok {
		s.fail(w, r, http.StatusNotFound, "unknown platform %q", r.PathValue("platform"))
		return
	}
	var ds *dataset.Dataset
	ct := r.Header.Get("Content-Type")
	switch {
	case strings.HasPrefix(ct, "text/csv"):
		parsed, err := dataset.ReadCSV(r.Body, "upload")
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, "parse csv: %v", err)
			return
		}
		ds = parsed
	default:
		var req UploadRequest
		if err := readJSON(r.Body, &req); err != nil {
			s.fail(w, r, http.StatusBadRequest, "parse json: %v", err)
			return
		}
		ds = &dataset.Dataset{Name: req.Name, X: req.X, Y: req.Y}
	}
	if err := ds.Validate(); err != nil {
		s.fail(w, r, http.StatusBadRequest, "invalid dataset: %v", err)
		return
	}
	if ds.N() == 0 {
		s.fail(w, r, http.StatusBadRequest, "empty dataset")
		return
	}
	// Like the real services, no data cleaning happens server-side (§2);
	// datasets with missing values are rejected rather than silently fixed.
	if ds.HasMissing() {
		s.fail(w, r, http.StatusBadRequest, "dataset has missing values; clean before upload")
		return
	}

	// The id hashes the canonical MLDS bytes, name included: stochastic
	// learners seed from the dataset name, so it is part of what a model
	// trained on this upload computes.
	enc, err := store.EncodeDataset(ds)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "invalid dataset: %v", err)
		return
	}
	id := contentID("ds-", enc)
	// Equal ids mean equal bytes, so a re-upload (a client retry, a router
	// repair) keeps the existing entry: models trained on it and its
	// memoized views stay shared.
	key := p.Name() + "/" + id
	s.mu.Lock()
	if _, ok := s.datasets[key]; !ok {
		s.datasets[key] = &datasetEntry{data: ds, views: pipeline.NewFeatCache()}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, UploadResponse{ID: id, Samples: ds.N(), Columns: ds.D()})
}

// TrainRequest asks the platform to build a model.
type TrainRequest struct {
	Dataset    string         `json:"dataset"`
	Feat       string         `json:"feat,omitempty"`       // FEAT option (pipeline.Feat syntax)
	Classifier string         `json:"classifier,omitempty"` // ignored by black boxes
	Params     map[string]any `json:"params,omitempty"`
	Seed       uint64         `json:"seed,omitempty"`
}

// TrainResponse returns the model's content id ("m-" + 32 hex digits), the
// same for every train of the same description on any server.
type TrainResponse struct {
	ID string `json:"id"`
}

func (s *Server) handleTrain(w http.ResponseWriter, r *http.Request) {
	p, ok := s.platform(r)
	if !ok {
		s.fail(w, r, http.StatusNotFound, "unknown platform %q", r.PathValue("platform"))
		return
	}
	var req TrainRequest
	if err := readJSON(r.Body, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, "parse json: %v", err)
		return
	}
	s.mu.RLock()
	ds, ok := s.datasets[p.Name()+"/"+req.Dataset]
	s.mu.RUnlock()
	if !ok {
		s.fail(w, r, http.StatusNotFound, "unknown dataset %q on %s", req.Dataset, p.Name())
		return
	}
	cfg, err := s.buildConfig(p, req)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	// Fit the real model now, at model-creation time, and park the fitted
	// artifact in the cache for the first predict. Train errors therefore
	// surface here, matching the paper's platforms, which likewise failed
	// at train time. Identical concurrent train requests coalesce into a
	// single fit, and a repeated train is a cache hit returning the same id.
	ctx := r.Context()
	key := modelKey(p.Name(), req.Dataset, cfg, req.Seed)
	if _, _, err := s.fits.get(key, func() (platforms.FittedModel, error) {
		return fitInSpan(ctx, p, cfg, ds, req.Seed)
	}); err != nil {
		s.fail(w, r, http.StatusUnprocessableEntity, "train: %v", err)
		return
	}

	id := contentID("m-", []byte(key))
	s.mu.Lock()
	s.models[p.Name()+"/"+id] = &storedModel{ds: ds, config: cfg, seed: req.Seed, key: key}
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, TrainResponse{ID: id})
}

// buildConfig converts a TrainRequest into a pipeline config appropriate for
// the platform: black boxes accept no configuration at all, and every
// param is checked against the platform surface (Surface.Configure).
func (s *Server) buildConfig(p platforms.Platform, req TrainRequest) (pipeline.Config, error) {
	if p.BaselineClassifier() == "" {
		if req.Classifier != "" || req.Feat != "" || len(req.Params) > 0 {
			return pipeline.Config{}, errors.New("platform is fully automated and accepts no configuration")
		}
		return pipeline.Config{}, nil
	}
	clf := req.Classifier
	if clf == "" {
		clf = p.BaselineClassifier()
	}
	cfg, err := p.Surface().Configure(clf, req.Params)
	if err != nil {
		return pipeline.Config{}, fmt.Errorf("%s: %w", p.Name(), err)
	}
	if req.Feat != "" {
		f, err := pipeline.ParseFeat(req.Feat)
		if err != nil {
			return pipeline.Config{}, err
		}
		cfg.Feat = f
	}
	return cfg, nil
}

// PredictRequest carries query instances.
type PredictRequest struct {
	Instances [][]float64 `json:"instances"`
}

// PredictResponse returns predicted labels aligned with the instances. The
// label slice is the classifier's own output — allocated once at exactly
// len(instances), never copied or regrown on the way to the encoder.
type PredictResponse struct {
	Labels []int `json:"labels"`
}

// negotiatePredict picks the request and response codecs. A binary body is
// declared via Content-Type; the response follows the request codec unless
// Accept explicitly asks for the other one (Accept: application/json on a
// binary request downgrades the response; Accept: application/x-mlaas-frames
// on a JSON request upgrades it).
func negotiatePredict(r *http.Request) (binaryIn, binaryOut bool) {
	binaryIn = wire.Negotiates(r.Header.Get("Content-Type"))
	accept := r.Header.Get("Accept")
	switch {
	case wire.Negotiates(accept):
		binaryOut = true
	case strings.Contains(accept, "application/json"):
		binaryOut = false
	default:
		binaryOut = binaryIn
	}
	return binaryIn, binaryOut
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	p, ok := s.platform(r)
	if !ok {
		s.fail(w, r, http.StatusNotFound, "unknown platform %q", r.PathValue("platform"))
		return
	}
	s.mu.RLock()
	m, ok := s.models[p.Name()+"/"+r.PathValue("model")]
	s.mu.RUnlock()
	if !ok {
		s.fail(w, r, http.StatusNotFound, "unknown model %q on %s", r.PathValue("model"), p.Name())
		return
	}
	width := m.ds.data.D()
	binaryIn, binaryOut := negotiatePredict(r)
	codec := "json"
	if binaryIn {
		codec = "binary"
	}
	s.reg.Counter(telemetry.CodecRequestsTotal, "codec", codec).Inc()

	// The hot path: resolve the resident fitted model (refitting from the
	// description only after an eviction or restart) and run a pure forward
	// pass. The resolve happens before the body is consumed because binary
	// bodies stream: each frame predicts as it is decoded, so the model
	// must be ready when the first frame lands. The latency histogram
	// splits the two regimes so the cache's effect is visible per request
	// class, and the resolve/forward split is visible as child spans in
	// the request trace.
	ctx := r.Context()
	start := time.Now()
	resCtx, resolve := telemetry.StartSpan(ctx, "model_resolve")
	fm, refit, err := s.fits.get(m.key, func() (platforms.FittedModel, error) {
		return fitInSpan(resCtx, p, m.config, m.ds, m.seed)
	})
	path := "forward"
	if refit {
		path = "refit"
	}
	resolve.SetAttr("path", path)
	resolve.SetError(err)
	resolve.End()
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, "predict: %v", err)
		return
	}
	// Large batches fan across a bounded set of row shards, each an
	// independent forward pass over a contiguous instance range stitched
	// back in input order — byte-identical to the serial pass. Shard spans
	// attach concurrently to the forward span; the trace tree is
	// mutex-guarded so that is safe.
	fwdCtx, forward := telemetry.StartSpan(ctx, "forward")
	predict := func(points [][]float64) []int { return fm.PredictCtx(fwdCtx, points) }
	predictRows := func(instances [][]float64) []int {
		return pipeline.PredictSharded(predict, instances, pipeline.ShardCount(len(instances), s.predictShards))
	}

	var (
		labels    []int   // JSON response accumulation
		respBuf   *[]byte // binary response frames (pooled)
		lastFrame = -1    // offset of the newest label frame in respBuf
		totalRows int
		frames    int
	)
	if binaryOut {
		respBuf = wire.GetBuffer()
		defer wire.PutBuffer(respBuf)
	}
	// emit predicts one batch and appends its labels to the response. On the
	// binary path part is owned by the pooled frame Reader and is overwritten
	// by the next frame, so emit must be done with it when it returns: no
	// classifier retains its Predict input (TestPredictDoesNotRetainInput),
	// and PredictSharded joins its shard goroutines before returning — that
	// ordering is load-bearing here.
	emit := func(part [][]float64) {
		got := predictRows(part)
		totalRows += len(part)
		frames++
		if binaryOut {
			lastFrame = len(*respBuf)
			*respBuf = wire.AppendLabelsFrame(*respBuf, got, 0)
			s.reg.Histogram(telemetry.WireFrameBytesHistogram, "dir", "tx").
				Observe(float64(len(*respBuf) - lastFrame))
		} else if labels == nil {
			// Single-batch JSON responses hand the classifier's own output
			// slice to the encoder, never copied or regrown.
			labels = got
		} else {
			labels = append(labels, got...)
		}
	}

	if binaryIn {
		// Streaming decode: every frame is validated, predicted and its
		// label frame appended before the next frame is read, so a
		// multi-frame body pipelines through the server without one giant
		// matrix allocation. Nothing is written until the whole body has
		// decoded cleanly, so malformed later frames still get a clean 400.
		// The Reader is pooled and its rows live until the next NextMatrix
		// (see emit).
		dec := wire.GetReader(r.Body)
		defer wire.PutReader(dec)
		rxBytes := s.reg.Histogram(telemetry.WireFrameBytesHistogram, "dir", "rx")
		for {
			rows, last, err := dec.NextMatrix()
			if err == io.EOF {
				break
			}
			if err != nil {
				forward.End()
				s.failCode(w, r, http.StatusBadRequest, codeBadPayload, "decode frame %d: %v", frames, err)
				return
			}
			if len(rows) > 0 {
				rxBytes.Observe(float64(wire.HeaderSize + 8*len(rows)*len(rows[0])))
				if len(rows[0]) != width {
					forward.End()
					s.failCode(w, r, http.StatusBadRequest, codeBadRowWidth,
						"frame %d rows have %d features, dataset has %d", frames, len(rows[0]), width)
					return
				}
				emit(rows)
			}
			if last {
				break
			}
		}
		if totalRows == 0 {
			forward.End()
			s.failCode(w, r, http.StatusBadRequest, codeNoInstances, "no instances")
			return
		}
	} else {
		var req PredictRequest
		if err := readJSON(r.Body, &req); err != nil {
			forward.End()
			s.failCode(w, r, http.StatusBadRequest, codeBadPayload, "parse json: %v", err)
			return
		}
		if len(req.Instances) == 0 {
			forward.End()
			s.failCode(w, r, http.StatusBadRequest, codeNoInstances, "no instances")
			return
		}
		// Clamp every row to the model's feature width before any of them
		// reaches the forward pass — a ragged row would otherwise index
		// out of range deep inside a kernel.
		for i, inst := range req.Instances {
			if len(inst) != width {
				forward.End()
				s.failCode(w, r, http.StatusBadRequest, codeBadRowWidth,
					"instance %d has %d features, dataset has %d", i, len(inst), width)
				return
			}
		}
		emit(req.Instances)
	}

	forward.SetAttr("batch_rows", strconv.Itoa(totalRows)).
		SetAttr("shards", strconv.Itoa(pipeline.ShardCount(totalRows, s.predictShards))).
		SetAttr("codec", codec).
		SetAttr("frames", strconv.Itoa(frames))
	forward.End()
	s.reg.Histogram(telemetry.PredictPathHistogram, "path", path).Observe(time.Since(start).Seconds())
	s.reg.Histogram(telemetry.PredictBatchSizeHistogram).Observe(float64(totalRows))
	if binaryOut {
		wire.MarkLast(*respBuf, lastFrame)
		w.Header().Set("Content-Type", wire.ContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(*respBuf)
		return
	}
	writeJSON(w, http.StatusOK, PredictResponse{Labels: labels})
}

// fitInSpan runs the platform fit on ds, sharing its memoized views, inside
// a "model_fit" child span of ctx (the pipeline's own
// "fit"/"preprocess"/"featsel" stage spans nest below it).
// It only runs for the request that actually fits: coalesced waiters and
// cache hits never enter the modelCache fill function.
func fitInSpan(ctx context.Context, p platforms.Platform, cfg pipeline.Config, ds *datasetEntry, seed uint64) (platforms.FittedModel, error) {
	fitCtx, span := telemetry.StartSpan(ctx, "model_fit")
	fm, err := p.FitCtx(fitCtx, cfg, ds.data, seed, ds.views)
	span.SetError(err)
	span.End()
	return fm, err
}
