package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlaasbench/internal/service"
	"mlaasbench/internal/telemetry"
)

// Router is the cluster front end: it consistent-hashes every model onto
// its R ring owners and proxies the MLaaS API onto the replica fleet with
// health-aware failover. Bodies cross the router verbatim — a binary-frame
// predict is relayed as raw bytes, never decoded or re-encoded — so the
// PR 7 wire path stays binary hop-to-hop.
//
// Ids are the replicas': dataset and model ids are content addresses, so
// every replica names the same upload or train identically and the router
// relays them unchanged. Per id the router keeps only what repair needs —
// the upload and train bodies and the model's ring owners. When an owner
// answers 404 for an id the router has a record of (a late joiner, a
// restarted replica), the router replays the stored bodies onto it and
// retries once; upload and train are idempotent, so a replay never forks
// state. A restarted router has no records: it answers 404, and the client
// re-uploads and re-trains and gets the same ids back.
type Router struct {
	ring     *Ring
	replicas []*replicaState // index-aligned with ring.Members()
	byName   map[string]*replicaState

	httpc        *http.Client
	reg          *telemetry.Registry
	logf         func(format string, args ...any)
	breakFails   int
	breakCool    time.Duration
	probeTimeout time.Duration
	started      time.Time

	mu       sync.RWMutex
	datasets map[string]*routedDataset // key: platform/id
	models   map[string]*routedModel   // key: platform/id
}

// routedDataset is the router's replay record of one upload.
type routedDataset struct {
	contentType string
	body        []byte
}

// routedModel is the router's replay record of one train: the client's
// train body verbatim, the upload it names, and the model's ring owners.
type routedModel struct {
	dataset *routedDataset
	body    []byte
	owners  []string
}

// Option configures a Router.
type Option func(*Router)

// WithRegistry redirects router metrics into reg (default: a fresh
// isolated registry).
func WithRegistry(reg *telemetry.Registry) Option { return func(rt *Router) { rt.reg = reg } }

// WithLogger sets the router's log function (default: silent).
func WithLogger(logf func(format string, args ...any)) Option {
	return func(rt *Router) { rt.logf = logf }
}

// WithReplication sets R, the owner count per model key.
func WithReplication(r int) Option {
	return func(rt *Router) { rt.ring = NewRing(rt.ring.Members(), rt.ring.vnodes, r) }
}

// WithVirtualNodes sets the virtual nodes per ring member.
func WithVirtualNodes(v int) Option {
	return func(rt *Router) { rt.ring = NewRing(rt.ring.Members(), v, rt.ring.replication) }
}

// WithBreaker tunes the per-replica circuit breaker.
func WithBreaker(failures int, cooldown time.Duration) Option {
	return func(rt *Router) { rt.breakFails, rt.breakCool = failures, cooldown }
}

// WithProbeTimeout bounds one health probe.
func WithProbeTimeout(d time.Duration) Option { return func(rt *Router) { rt.probeTimeout = d } }

// WithHTTPClient replaces the proxy HTTP client (connection pool tuning).
func WithHTTPClient(c *http.Client) Option { return func(rt *Router) { rt.httpc = c } }

// NewRouter builds a router over the given replica base URLs. The URLs
// are the ring member identities: the same fleet list yields the same
// key→owner assignment in every process.
func NewRouter(replicaURLs []string, opts ...Option) (*Router, error) {
	if len(replicaURLs) == 0 {
		return nil, fmt.Errorf("cluster: no replicas")
	}
	names := make([]string, len(replicaURLs))
	for i, u := range replicaURLs {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("cluster: empty replica URL at index %d", i)
		}
		names[i] = u
	}
	rt := &Router{
		ring:         NewRing(names, 0, 0),
		byName:       make(map[string]*replicaState, len(names)),
		httpc:        &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64, MaxIdleConns: 256, IdleConnTimeout: 90 * time.Second}},
		reg:          telemetry.NewRegistry(),
		logf:         func(string, ...any) {},
		breakFails:   DefaultBreakerFailures,
		breakCool:    DefaultBreakerCooldown,
		probeTimeout: DefaultProbeTimeout,
		started:      time.Now(),
		datasets:     map[string]*routedDataset{},
		models:       map[string]*routedModel{},
	}
	for _, o := range opts {
		o(rt)
	}
	if len(rt.ring.Members()) != len(names) {
		return nil, fmt.Errorf("cluster: duplicate replica URLs")
	}
	for _, m := range rt.ring.Members() {
		rs := &replicaState{name: m, base: m}
		rt.replicas = append(rt.replicas, rs)
		rt.byName[m] = rs
	}
	rt.describeMetrics()
	return rt, nil
}

func (rt *Router) describeMetrics() {
	rt.reg.Describe(telemetry.RouterRequestsTotal, "Requests proxied by the cluster router, by replica and outcome.")
	rt.reg.Describe(telemetry.RouterReplicaStateChangesTotal, "Replica routable-state transitions (ring rebalance events), by replica and state.")
	rt.reg.Describe(telemetry.RouterFailoversTotal, "Proxy attempts that failed over to another ring owner, by route.")
	rt.reg.Describe(telemetry.RouterRepairsTotal, "Datasets/models lazily re-provisioned onto an owner that was missing them, by kind.")
}

// Registry returns the registry the router records into.
func (rt *Router) Registry() *telemetry.Registry { return rt.reg }

// Ring returns the router's consistent-hash ring.
func (rt *Router) Ring() *Ring { return rt.ring }

// ModelOwners reports the ring owner set of a routed model, primary
// first — the operator's answer to "which replicas hold this model".
// Nil for unknown models.
func (rt *Router) ModelOwners(platform, modelID string) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rm := rt.models[platform+"/"+modelID]; rm != nil {
		return append([]string(nil), rm.owners...)
	}
	return nil
}

// Handler returns the router's HTTP handler: the public MLaaS API
// proxied onto the fleet, plus the router's own /metrics and a fleet
// /healthz.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/platforms", rt.passthrough("list_platforms"))
	mux.HandleFunc("GET /v1/platforms/{platform}/surface", rt.passthrough("surface"))
	mux.HandleFunc("POST /v1/platforms/{platform}/datasets", rt.withSpan("upload", rt.handleUpload))
	mux.HandleFunc("POST /v1/platforms/{platform}/models", rt.withSpan("train", rt.handleTrain))
	mux.HandleFunc("POST /v1/platforms/{platform}/models/{model}/predictions", rt.withSpan("predict", rt.handlePredict))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rt.reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		rt.writeJSON(w, http.StatusOK, rt.reg.Snapshot())
	})
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return mux
}

// withSpan wraps a handler in a "router:<route>" span that joins the
// caller's trace when a Traceparent header is present, and stamps the
// outbound context so proxied hops carry the router's span as parent —
// the client→router→replica stitch.
func (rt *Router) withSpan(route string, h http.HandlerFunc) http.HandlerFunc {
	spanName := "router:" + route
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get(telemetry.RequestIDHeader)
		if reqID == "" {
			reqID = telemetry.NewRequestID()
		}
		w.Header().Set(telemetry.RequestIDHeader, reqID)
		ctx := telemetry.WithRequestID(r.Context(), reqID)
		ctx = telemetry.WithRegistry(ctx, rt.reg)
		if tid, sid, ok := telemetry.ParseTraceParent(r.Header.Get(telemetry.TraceParentHeader)); ok {
			ctx = telemetry.WithRemoteParent(ctx, tid, sid)
		}
		ctx, span := telemetry.StartSpan(ctx, spanName)
		span.SetAttr("route", route).SetAttr("request_id", reqID)
		traceparent := telemetry.FormatTraceParent(span.TraceID(), span.SpanID())
		w.Header().Set(telemetry.TraceParentHeader, traceparent)
		// The replica hop carries the router span as remote parent.
		r.Header.Set(telemetry.TraceParentHeader, traceparent)
		r.Header.Set(telemetry.RequestIDHeader, reqID)
		h(w, r.WithContext(ctx))
		span.End()
	}
}

// RouterHealth is the router's GET /healthz body: fleet state.
type RouterHealth struct {
	Status            string          `json:"status"`
	UptimeSeconds     float64         `json:"uptime_seconds"`
	Replicas          []ReplicaHealth `json:"replicas"`
	AvailableReplicas int             `json:"available_replicas"`
	Replication       int             `json:"replication"`
	VirtualNodes      int             `json:"virtual_nodes"`
	Datasets          int             `json:"datasets"`
	Models            int             `json:"models"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	out := RouterHealth{
		Status:        "ok",
		UptimeSeconds: time.Since(rt.started).Seconds(),
		Replication:   rt.ring.Replication(),
		VirtualNodes:  rt.ring.vnodes,
	}
	for _, rs := range rt.replicas {
		h := rs.snapshot(now)
		out.Replicas = append(out.Replicas, h)
		if h.Up && h.Ready && !h.BreakerOpen {
			out.AvailableReplicas++
		}
	}
	if out.AvailableReplicas == 0 {
		out.Status = "degraded"
	}
	rt.mu.RLock()
	out.Datasets, out.Models = len(rt.datasets), len(rt.models)
	rt.mu.RUnlock()
	rt.writeJSON(w, http.StatusOK, out)
}

// routerError is the router's error envelope, shaped like the service's
// so clients parse both identically.
type routerError struct {
	Error     string `json:"error"`
	Code      string `json:"code,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

func (rt *Router) writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func (rt *Router) fail(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	reqID := telemetry.RequestID(r.Context())
	rt.logf("router: %d %s (request %s)", status, msg, reqID)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	rt.writeJSON(w, status, routerError{Error: msg, Code: code, RequestID: reqID})
}

// available returns the replicas currently eligible for traffic, in ring
// member order.
func (rt *Router) availableReplicas() []*replicaState {
	now := time.Now()
	out := make([]*replicaState, 0, len(rt.replicas))
	for _, rs := range rt.replicas {
		if rs.available(now) {
			out = append(out, rs)
		}
	}
	return out
}

// proxied is one relayed replica response, body fully read so the
// router can fail over when a replica dies mid-response.
type proxied struct {
	status int
	header http.Header
	body   []byte
}

// proxy relays one request to a replica and reads the full response.
// Any transport error — including a connection that dies between the
// request and the end of the response body — returns an error so the
// caller can fail over to the next owner.
func (rt *Router) proxy(r *http.Request, rs *replicaState, method, path, contentType string, body []byte) (*proxied, error) {
	req, err := http.NewRequestWithContext(r.Context(), method, rs.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept := r.Header.Get("Accept"); accept != "" {
		req.Header.Set("Accept", accept)
	}
	req.Header.Set(telemetry.RequestIDHeader, r.Header.Get(telemetry.RequestIDHeader))
	req.Header.Set(telemetry.TraceParentHeader, r.Header.Get(telemetry.TraceParentHeader))

	rs.inFlight.Add(1)
	defer rs.inFlight.Add(-1)

	resp, err := rt.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read response: %w", err)
	}
	return &proxied{status: resp.StatusCode, header: resp.Header, body: raw}, nil
}

// relay writes a proxied replica response to the client verbatim.
func relay(w http.ResponseWriter, p *proxied) {
	if ct := p.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := p.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(p.status)
	_, _ = w.Write(p.body)
}

// outcomeOf maps a relayed status to the requests_total outcome label.
func outcomeOf(status int) string {
	switch {
	case status < 400:
		return "ok"
	case status < 500:
		return "client_error"
	default:
		return "error"
	}
}

// passthrough proxies a read-only route to the first available replica
// (any replica can answer — the platform directory is identical
// everywhere), failing over through the fleet.
func (rt *Router) passthrough(route string) http.HandlerFunc {
	return rt.withSpan(route, func(w http.ResponseWriter, r *http.Request) {
		for _, rs := range rt.availableReplicas() {
			p, err := rt.proxy(r, rs, http.MethodGet, r.URL.Path, "", nil)
			if err != nil || p.status >= 500 {
				rt.noteFailure(rs, route, err)
				continue
			}
			rt.noteSuccess(rs, p.status)
			relay(w, p)
			return
		}
		rt.fail(w, r, http.StatusServiceUnavailable, "no_replica", "no replica available for %s", route)
	})
}

// noteSuccess records a successful (or client-errored: the replica is
// healthy, the request was bad) proxy outcome.
func (rt *Router) noteSuccess(rs *replicaState, status int) {
	rs.recordSuccess()
	rt.reg.Counter(telemetry.RouterRequestsTotal, "replica", rs.name, "outcome", outcomeOf(status)).Inc()
}

// noteFailure records a failed proxy attempt and opens the breaker at
// the threshold.
func (rt *Router) noteFailure(rs *replicaState, route string, err error) {
	rt.reg.Counter(telemetry.RouterRequestsTotal, "replica", rs.name, "outcome", "error").Inc()
	rt.reg.Counter(telemetry.RouterFailoversTotal, "route", route).Inc()
	if rs.recordFailure(rt.breakFails, rt.breakCool) {
		rt.reg.Counter(telemetry.RouterReplicaStateChangesTotal, "replica", rs.name, "state", "breaker_open").Inc()
		rt.logf("router: breaker open for %s", rs.name)
	}
	if err != nil {
		rt.logf("router: %s attempt on %s failed: %v", route, rs.name, err)
	}
}

// create sends one upload or train to each target replica and relays the
// outcome: the first deterministic 4xx at once (every replica would reject
// alike), else the first 201 body verbatim once every target has been
// tried, after record has stored the router's replay record under its id.
// Ids are content addresses, so every replica must answer the same one; a
// replica answering another (version skew) counts as a failed attempt,
// never a silent fork. It reports false, having written nothing, when no
// target answered.
func (rt *Router) create(w http.ResponseWriter, route string, targets []*replicaState,
	send func(*replicaState) (*proxied, error), record func(id string)) bool {
	var first *proxied
	var id string
	for _, rs := range targets {
		p, err := send(rs)
		switch {
		case err != nil: // transport failure, counted below
		case p.status == http.StatusCreated:
			var got struct {
				ID string `json:"id"`
			}
			if err = json.Unmarshal(p.body, &got); err == nil && first == nil {
				first, id = p, got.ID
			} else if err == nil && got.ID != id {
				err = fmt.Errorf("answered id %q, peers %q (version skew)", got.ID, id)
			}
		case p.status < 500:
			rt.noteSuccess(rs, p.status)
			relay(w, p)
			return true
		default:
			err = fmt.Errorf("http %d", p.status)
		}
		if err != nil {
			rt.noteFailure(rs, route, err)
			continue
		}
		rt.noteSuccess(rs, p.status)
	}
	if first == nil {
		return false
	}
	record(id)
	relay(w, first)
	return true
}

// handleUpload buffers the dataset body and pushes it to every
// currently-available replica. Replicas that miss the broadcast (down,
// warming, joined later) are repaired on first need (sendRepairing).
func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.fail(w, r, http.StatusBadRequest, "bad_payload", "read body: %v", err)
		return
	}
	rd := &routedDataset{contentType: r.Header.Get("Content-Type"), body: body}
	if !rt.create(w, "upload", rt.availableReplicas(), func(rs *replicaState) (*proxied, error) {
		return rt.proxy(r, rs, http.MethodPost, r.URL.Path, rd.contentType, body)
	}, func(id string) {
		rt.mu.Lock()
		rt.datasets[r.PathValue("platform")+"/"+id] = rd
		rt.mu.Unlock()
	}) {
		rt.fail(w, r, http.StatusServiceUnavailable, "no_replica", "no replica accepted the dataset")
	}
}

// modelRingKey is the ring identity of a model: everything that
// determines the fitted artifact. It only needs to be the same in every
// router — the ring decides placement, the replicas decide bytes.
func modelRingKey(platform, datasetID string, req service.TrainRequest) string {
	params := make([]string, 0, len(req.Params))
	for k, v := range req.Params {
		b, _ := json.Marshal(v)
		params = append(params, k+"="+string(b))
	}
	sort.Strings(params)
	return "model/" + platform + "/" + datasetID + "/" + req.Feat + "/" + req.Classifier +
		"/" + strings.Join(params, ",") + "/" + strconv.FormatUint(req.Seed, 10)
}

// handleTrain reads the train request, picks the model's R ring owners,
// and forwards the client's bytes verbatim to every available owner. At
// least one owner must hold the model before the router acknowledges it.
func (rt *Router) handleTrain(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.fail(w, r, http.StatusBadRequest, "bad_payload", "read body: %v", err)
		return
	}
	var req service.TrainRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.fail(w, r, http.StatusBadRequest, "bad_payload", "parse json: %v", err)
		return
	}
	platform := r.PathValue("platform")
	rt.mu.RLock()
	rd := rt.datasets[platform+"/"+req.Dataset]
	rt.mu.RUnlock()
	if rd == nil {
		rt.fail(w, r, http.StatusNotFound, "", "unknown dataset %q on %s", req.Dataset, platform)
		return
	}
	rm := &routedModel{dataset: rd, body: body, owners: rt.ring.Owners(modelRingKey(platform, req.Dataset, req))}
	now := time.Now()
	var targets []*replicaState
	for _, owner := range rm.owners {
		if rs := rt.byName[owner]; rs.available(now) {
			targets = append(targets, rs)
		}
	}
	if !rt.create(w, "train", targets, func(rs *replicaState) (*proxied, error) {
		return rt.sendRepairing(r, rs, "application/json", body, rd, nil)
	}, func(id string) {
		rt.mu.Lock()
		rt.models[platform+"/"+id] = rm
		rt.mu.Unlock()
	}) {
		rt.fail(w, r, http.StatusServiceUnavailable, "no_replica", "no ring owner available to train (owners: %s)", strings.Join(rm.owners, ", "))
	}
}

// sendRepairing proxies r's body to rs at r's own path. A 404 means rs
// lacks the dataset (train) or model (predict) the router has a record of —
// it missed the original request, or restarted since — so rd's upload
// body, then trainBody when set, is replayed onto rs and the request
// retried once.
func (rt *Router) sendRepairing(r *http.Request, rs *replicaState, contentType string, body []byte, rd *routedDataset, trainBody []byte) (*proxied, error) {
	p, err := rt.proxy(r, rs, http.MethodPost, r.URL.Path, contentType, body)
	if err != nil || p.status != http.StatusNotFound {
		return p, err
	}
	base := "/v1/platforms/" + r.PathValue("platform")
	if err := rt.replay(r, rs, "dataset", base+"/datasets", rd.contentType, rd.body); err != nil {
		return nil, err
	}
	if trainBody != nil {
		if err := rt.replay(r, rs, "model", base+"/models", "application/json", trainBody); err != nil {
			return nil, err
		}
	}
	return rt.proxy(r, rs, http.MethodPost, r.URL.Path, contentType, body)
}

// replay re-sends one stored upload or train body to rs and counts the
// repair.
func (rt *Router) replay(r *http.Request, rs *replicaState, kind, path, contentType string, body []byte) error {
	p, err := rt.proxy(r, rs, http.MethodPost, path, contentType, body)
	if err != nil {
		return err
	}
	if p.status != http.StatusCreated {
		return fmt.Errorf("replica %s rejected %s replay: http %d", rs.name, kind, p.status)
	}
	rt.reg.Counter(telemetry.RouterRepairsTotal, "kind", kind).Inc()
	rt.logf("router: repaired %s onto %s: %s", kind, rs.name, bytes.TrimSpace(p.body))
	return nil
}

// handlePredict is the hot path: route the request to the least-loaded
// of the model's ring owners, relay the body bytes verbatim (binary
// frames included — no re-encode), and fail over to the next owner on
// any replica error, including death mid-response. An owner missing the
// model is repaired first (sendRepairing). Any other 4xx is the caller's
// problem and is relayed from the first owner that answers; only replica
// failures (transport errors, 5xx) move on.
//
// Every owner holds the same fitted model (training is deterministic),
// so any of them may serve any predict; ordering the attempt list by
// current in-flight count — join-shortest-queue over the owner set —
// spreads a hot model's load across its R owners and keeps an uneven
// model→primary assignment from bottlenecking the fleet on one replica.
// Ties keep ring order, so an idle fleet still routes predictably.
func (rt *Router) handlePredict(w http.ResponseWriter, r *http.Request) {
	platform, model := r.PathValue("platform"), r.PathValue("model")
	rt.mu.RLock()
	rm := rt.models[platform+"/"+model]
	rt.mu.RUnlock()
	if rm == nil {
		rt.fail(w, r, http.StatusNotFound, "", "unknown model %q on %s", model, platform)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.fail(w, r, http.StatusBadRequest, "bad_payload", "read body: %v", err)
		return
	}
	contentType := r.Header.Get("Content-Type")

	now := time.Now()
	type candidate struct {
		rs   *replicaState
		load int64
	}
	cands := make([]candidate, 0, len(rm.owners))
	for _, owner := range rm.owners {
		rs := rt.byName[owner]
		if !rs.available(now) {
			continue
		}
		cands = append(cands, candidate{rs, rs.inFlight.Load()})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].load < cands[j].load })
	attempts := 0
	for _, cand := range cands {
		rs := cand.rs
		attempts++
		p, err := rt.sendRepairing(r, rs, contentType, body, rm.dataset, rm.body)
		if err != nil || p.status >= 500 {
			rt.noteFailure(rs, "predict", err)
			continue
		}
		rt.noteSuccess(rs, p.status)
		relay(w, p)
		return
	}
	rt.fail(w, r, http.StatusServiceUnavailable, "no_replica",
		"no ring owner served the predict (owners: %s, attempted: %d)", strings.Join(rm.owners, ", "), attempts)
}
