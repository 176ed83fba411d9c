// Package client is the measurement-side counterpart of the service
// package: a context-aware HTTP client that uploads datasets, trains
// models and queries predictions against a (simulated or real) MLaaS API,
// with the retry, backoff and rate-limiting discipline a five-month
// measurement campaign needs (§3.2: experiments ran October 2016 through
// February 2017 over the platforms' web APIs).
//
// Every logical request carries an X-Request-ID that is kept constant
// across retries, echoed by the service, and stamped into errors — the
// correlation handle between a failed measurement and the server's logs.
// The client also records its own behaviour into a telemetry registry:
// request counts, retries, backoff sleep and rate-limiter wait per
// endpoint, so a sweep can report how the wire treated it.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/metrics"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/service"
	"mlaasbench/internal/telemetry"
	"mlaasbench/internal/wire"
)

// DefaultMaxBackoff caps the exponential retry delay. Without a cap the
// doubling grows unbounded (attempt 20 would sleep ~29 hours).
const DefaultMaxBackoff = 5 * time.Second

// DefaultPredictBatch caps instances per predictions request when the
// caller does not choose a chunk size. Unbounded batches put the whole
// query set in one JSON body — the real services all rejected that with
// payload limits, and server-side decode buffers stop pooling once bodies
// outgrow them. On the binary codec the same value is the frame size: the
// whole query set still travels in one request, chunked into frames.
const DefaultPredictBatch = 512

// Connection-pool defaults for the client's HTTP transport. A measurement
// campaign hammers one host with many concurrent closed-loop clients; the
// stdlib default of 2 idle connections per host closes and re-dials almost
// every connection under concurrency, which shows up as connect latency
// and TIME_WAIT churn rather than serving time.
const (
	DefaultMaxIdleConnsPerHost = 64
	DefaultIdleConnTimeout     = 90 * time.Second
)

// Codec selects the predict request/response body format.
type Codec string

const (
	// CodecJSON is the default reflection-based JSON body — the
	// compatibility oracle every other codec is asserted against.
	CodecJSON Codec = "json"
	// CodecBinary is the length-prefixed frame format in internal/wire:
	// raw little-endian float64 rows in, int64 labels out, negotiated via
	// Content-Type/Accept. Predictions are byte-identical to CodecJSON.
	CodecBinary Codec = "binary"
)

// predictWriteBuffer is the transport's per-connection write buffer: one
// typical predict body — a 64 KiB frame payload (512×16 or 256×32 float64,
// DefaultPredictBatch rows at the corpus widths) plus its frame header and
// the HTTP request head — fits whole. net/http copies a request body into
// this buffer first; only what does not fit falls through to the socket's
// generic ReadFrom, which allocates a fresh staging buffer of up to 32 KiB
// on every request. At the stdlib default of 4 KiB that was every binary
// predict. The cost is the buffer itself, once per pooled connection.
const predictWriteBuffer = 68 << 10

// maxPooledResponse caps the response buffers doRaw recycles: a buffer is
// presized from Content-Length only up to this (past it the buffer grows
// with the bytes that actually arrive, so a lying header cannot make the
// client allocate), and one that grew past it is dropped instead of pooled.
const maxPooledResponse = 1 << 20

var respPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// NewTransport returns the tuned *http.Transport the client dials with by
// default: keep-alives on, a deep per-host idle pool, an idle timeout that
// outlives request gaps within a sweep, and a write buffer sized to a
// predict body. Callers needing proxies or TLS settings can mutate the
// result before installing it WithTransport.
func NewTransport() *http.Transport {
	t := &http.Transport{
		Proxy:                 http.ProxyFromEnvironment,
		ForceAttemptHTTP2:     true,
		MaxIdleConns:          0, // no global cap; the per-host bound governs
		MaxIdleConnsPerHost:   DefaultMaxIdleConnsPerHost,
		IdleConnTimeout:       DefaultIdleConnTimeout,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: time.Second,
		WriteBufferSize:       predictWriteBuffer,
	}
	return t
}

// Client talks to one MLaaS service endpoint.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 30s timeout.
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts for transient failures (5xx and
	// transport errors). Default 3; negative disables retries entirely
	// (open-loop load generators want sheds surfaced, not retried).
	MaxRetries int
	// Codec selects the predict body format (CodecJSON default). Only the
	// predictions endpoint negotiates; every other call is always JSON.
	Codec Codec
	// Backoff is the initial retry delay, doubled per attempt up to
	// MaxBackoff. Default 100ms.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth. Default DefaultMaxBackoff.
	MaxBackoff time.Duration
	// Seed roots the backoff jitter stream: the same seed yields the same
	// sleep sequence, keeping sweeps reproducible end to end.
	Seed uint64
	// PredictBatch caps instances per predictions request in Measure and
	// MeasureOn (0 means DefaultPredictBatch). Large query sets are split
	// into chunks and the labels stitched back in instance order.
	PredictBatch int
	// Limiter, when non-nil, gates every request (rate limiting against
	// quota-limited services).
	Limiter *RateLimiter
	// Telemetry receives the client's metrics; nil means the process-wide
	// telemetry.Default() registry.
	Telemetry *telemetry.Registry
	// Fallbacks are alternate service roots tried on retry: attempt k goes
	// to element k-1 of [BaseURL, Fallbacks...] cycled, so a replica that
	// fails — including one that dies mid-response, since response-read
	// errors retry like dial errors — hands the request to the next
	// endpoint instead of hammering the corpse. In a cluster these are the
	// model's remaining ring owners. The request id, Traceparent and body
	// are identical across endpoints, so server-side the failover shows up
	// as sibling attempts of one rpc span.
	Fallbacks []string

	mu     sync.Mutex
	jitter *rng.RNG
}

// New returns a client for the given base URL with default settings,
// including the tuned connection pool (NewTransport).
func New(baseURL string) *Client {
	return &Client{
		BaseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: NewTransport()},
		MaxRetries: 3,
		Backoff:    100 * time.Millisecond,
		MaxBackoff: DefaultMaxBackoff,
	}
}

// WithTransport swaps the underlying RoundTripper and returns the client
// (chainable) — the hook for custom TLS, proxies, or instrumented
// transports while keeping the client's retry/telemetry discipline.
func (c *Client) WithTransport(rt http.RoundTripper) *Client {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	c.HTTPClient.Transport = rt
	return c
}

// WithCodec selects the predict body codec and returns the client
// (chainable).
func (c *Client) WithCodec(codec Codec) *Client {
	c.Codec = codec
	return c
}

// WithFailover adds alternate endpoints rotated through on retry and
// returns the client (chainable). Pass a model's remaining ring owners
// so a mid-request replica death fails over instead of retrying the
// dead endpoint until the budget runs out.
func (c *Client) WithFailover(urls ...string) *Client {
	c.Fallbacks = append(c.Fallbacks, urls...)
	return c
}

func (c *Client) registry() *telemetry.Registry {
	if c.Telemetry != nil {
		return c.Telemetry
	}
	return telemetry.Default()
}

// jitteredSleep maps a nominal backoff to the actual sleep: equal jitter,
// half fixed plus half drawn from the client's deterministic jitter stream,
// so concurrent clients with different seeds desynchronize their retry
// storms while any single sweep stays reproducible.
func (c *Client) jitteredSleep(d time.Duration) time.Duration {
	c.mu.Lock()
	if c.jitter == nil {
		c.jitter = rng.New(c.Seed).Split("client/backoff")
	}
	f := c.jitter.Float64()
	c.mu.Unlock()
	half := d / 2
	return half + time.Duration(f*float64(half))
}

// MinRatePerSec is the slowest refill NewRateLimiter supports: one token
// per hour. Rates at or below zero (which would produce a nonsensical or
// infinite ticker interval) are clamped to it.
const MinRatePerSec = 1.0 / 3600

// RateLimiter is a token bucket: capacity tokens, refilled at rate/sec.
type RateLimiter struct {
	tokens chan struct{}
	stop   chan struct{}
}

// NewRateLimiter starts a limiter allowing ratePerSec requests per second
// with the given burst capacity. Rates below MinRatePerSec (including zero,
// negative and NaN, which would otherwise yield a bogus ticker interval)
// are clamped to MinRatePerSec. Call Stop to release its goroutine.
func NewRateLimiter(ratePerSec float64, burst int) *RateLimiter {
	if burst < 1 {
		burst = 1
	}
	if math.IsNaN(ratePerSec) || ratePerSec < MinRatePerSec {
		ratePerSec = MinRatePerSec
	}
	rl := &RateLimiter{
		tokens: make(chan struct{}, burst),
		stop:   make(chan struct{}),
	}
	for i := 0; i < burst; i++ {
		rl.tokens <- struct{}{}
	}
	interval := time.Duration(float64(time.Second) / ratePerSec)
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				select {
				case rl.tokens <- struct{}{}:
				default:
				}
			case <-rl.stop:
				return
			}
		}
	}()
	return rl
}

// Wait blocks until a token is available or the context is done.
func (rl *RateLimiter) Wait(ctx context.Context) error {
	select {
	case <-rl.tokens:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Stop terminates the refill goroutine.
func (rl *RateLimiter) Stop() { close(rl.stop) }

// apiErr is a non-2xx response.
type apiErr struct {
	Status    int
	Msg       string
	RequestID string
}

func (e *apiErr) Error() string {
	if e.RequestID == "" {
		return fmt.Sprintf("api: %d: %s", e.Status, e.Msg)
	}
	return fmt.Sprintf("api: %d: %s (request %s)", e.Status, e.Msg, e.RequestID)
}

// IsRetryable reports whether an error is worth retrying (transport errors
// and 5xx responses; 4xx means the request itself is wrong).
func IsRetryable(err error) bool {
	if ae, ok := err.(*apiErr); ok {
		return ae.Status >= 500
	}
	return err != nil
}

// do executes one JSON request through doRaw: marshal the body, decode the
// response into out.
func (c *Client) do(ctx context.Context, op, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
	}
	return c.doRaw(ctx, op, method, path, "application/json", "", payload, func(data []byte) error {
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	})
}

// doRaw executes one request with retries and rate limiting over an
// arbitrary body codec. op is the logical endpoint name used as the
// telemetry label ("upload", "train", ...). One request id covers every
// retry of the same logical call, and so does one "rpc:<op>" span: the
// span's trace context travels in the Traceparent header, so the server's
// handler tree stitches under this client span, with backoff sleeps and
// rate-limit waits as siblings. A 503 carrying Retry-After raises the next
// backoff sleep to at least the server's hint — shed requests return when
// the admission queue says to, not sooner. Error bodies are always the
// JSON envelope regardless of codec; decode only ever sees 2xx bodies, in a
// pooled buffer that is recycled when doRaw returns — decode must copy out
// whatever it keeps (json.Unmarshal and wire.DecodeLabelsStream both do).
func (c *Client) doRaw(ctx context.Context, op, method, path, contentType, accept string, payload []byte, decode func([]byte) error) (err error) {
	httpc := c.HTTPClient
	if httpc == nil {
		httpc = &http.Client{Timeout: 30 * time.Second}
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = 3
	} else if retries < 0 {
		retries = 0 // explicit opt-out: fail fast, surface sheds
	}
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := c.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = DefaultMaxBackoff
	}
	reg := c.registry()
	if c.Telemetry != nil {
		ctx = telemetry.WithRegistry(ctx, c.Telemetry)
	}
	reg.Counter("mlaas_client_requests_total", "endpoint", op).Inc()
	reqID := telemetry.RequestID(ctx)
	if reqID == "" {
		reqID = telemetry.NewRequestID()
	}
	ctx, rpc := telemetry.StartSpan(ctx, "rpc:"+op)
	rpc.SetAttr("method", method).SetAttr("path", path).SetAttr("request_id", reqID)
	traceparent := telemetry.FormatTraceParent(rpc.TraceID(), rpc.SpanID())
	defer func() {
		rpc.SetError(err)
		rpc.End()
	}()

	body := respPool.Get().(*bytes.Buffer)
	defer func() {
		if body.Cap() <= maxPooledResponse {
			respPool.Put(body)
		}
	}()

	var lastErr error
	var retryAfter time.Duration
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			reg.Counter("mlaas_client_retries_total", "endpoint", op).Inc()
			nominal := backoff
			if retryAfter > nominal {
				nominal = retryAfter
				if nominal > maxBackoff {
					nominal = maxBackoff
				}
			}
			retryAfter = 0
			sleep := c.jitteredSleep(nominal)
			reg.Histogram("mlaas_client_backoff_seconds", "endpoint", op).Observe(sleep.Seconds())
			_, bspan := telemetry.StartSpan(ctx, "backoff")
			select {
			case <-time.After(sleep):
				bspan.End()
				backoff *= 2
				if backoff > maxBackoff {
					backoff = maxBackoff
				}
			case <-ctx.Done():
				bspan.End()
				return fmt.Errorf("client: %s aborted during backoff (request %s): %w", op, reqID, ctx.Err())
			}
		}
		if c.Limiter != nil {
			waitStart := time.Now()
			_, wspan := telemetry.StartSpan(ctx, "ratelimit_wait")
			err := c.Limiter.Wait(ctx)
			wspan.End()
			reg.Histogram("mlaas_client_ratelimit_wait_seconds", "endpoint", op).Observe(time.Since(waitStart).Seconds())
			if err != nil {
				return err
			}
		}
		base := c.BaseURL
		if len(c.Fallbacks) > 0 {
			bases := append([]string{c.BaseURL}, c.Fallbacks...)
			base = bases[attempt%len(bases)]
			if attempt > 0 {
				reg.Counter(telemetry.ClientFailoversTotal, "endpoint", op).Inc()
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("client: build request: %w", err)
		}
		req.Header.Set("Content-Type", contentType)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		req.Header.Set(telemetry.RequestIDHeader, reqID)
		req.Header.Set(telemetry.TraceParentHeader, traceparent)
		attemptStart := time.Now()
		resp, err := httpc.Do(req)
		reg.Histogram("mlaas_client_request_duration_seconds", "endpoint", op).Observe(time.Since(attemptStart).Seconds())
		if err != nil {
			lastErr = fmt.Errorf("client: %s %s (request %s): %w", method, path, reqID, err)
			continue
		}
		body.Reset()
		if n := resp.ContentLength; n > 0 && n <= maxPooledResponse {
			body.Grow(int(n))
		}
		_, err = body.ReadFrom(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("client: read response (request %s): %w", reqID, err)
			continue
		}
		data := body.Bytes()
		if resp.StatusCode >= 300 {
			var env struct {
				Error string `json:"error"`
			}
			_ = json.Unmarshal(data, &env)
			lastErr = &apiErr{Status: resp.StatusCode, Msg: env.Error, RequestID: reqID}
			if !IsRetryable(lastErr) {
				reg.Counter("mlaas_client_errors_total", "endpoint", op).Inc()
				return lastErr
			}
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				retryAfter = time.Duration(secs) * time.Second
			} else {
				retryAfter = 0
			}
			continue
		}
		if decode == nil {
			return nil
		}
		if err := decode(data); err != nil {
			return fmt.Errorf("client: decode response (request %s): %w", reqID, err)
		}
		return nil
	}
	reg.Counter("mlaas_client_errors_total", "endpoint", op).Inc()
	return lastErr
}

// Platforms lists the platforms the service hosts.
func (c *Client) Platforms(ctx context.Context) ([]service.PlatformInfo, error) {
	var out []service.PlatformInfo
	err := c.do(ctx, "platforms", http.MethodGet, "/v1/platforms", nil, &out)
	return out, err
}

// Surface fetches one platform's control surface.
func (c *Client) Surface(ctx context.Context, platform string) (service.SurfaceDoc, error) {
	var out service.SurfaceDoc
	err := c.do(ctx, "surface", http.MethodGet, "/v1/platforms/"+platform+"/surface", nil, &out)
	return out, err
}

// Upload sends a dataset to a platform and returns its id.
func (c *Client) Upload(ctx context.Context, platform string, ds *dataset.Dataset) (string, error) {
	req := service.UploadRequest{Name: ds.Name, X: ds.X, Y: ds.Y}
	var out service.UploadResponse
	if err := c.do(ctx, "upload", http.MethodPost, "/v1/platforms/"+platform+"/datasets", req, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Train creates a model on an uploaded dataset. For black-box platforms
// pass an empty config.
func (c *Client) Train(ctx context.Context, platform, datasetID string, cfg pipeline.Config, seed uint64) (string, error) {
	req := service.TrainRequest{Dataset: datasetID, Seed: seed}
	if cfg.Classifier != "" {
		req.Classifier = cfg.Classifier
		req.Params = cfg.Params
		if cfg.Feat.Kind != "" && cfg.Feat.Kind != "none" {
			req.Feat = cfg.Feat.String()
		}
	}
	var out service.TrainResponse
	if err := c.do(ctx, "train", http.MethodPost, "/v1/platforms/"+platform+"/models", req, &out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// Predict queries a model with instances and returns predicted labels,
// over the client's configured codec (one frame / one JSON body).
func (c *Client) Predict(ctx context.Context, platform, modelID string, instances [][]float64) ([]int, error) {
	if c.Codec == CodecBinary {
		return c.predictWire(ctx, platform, modelID, instances, 0)
	}
	req := service.PredictRequest{Instances: instances}
	var out service.PredictResponse
	if err := c.do(ctx, "predict", http.MethodPost, predictPath(platform, modelID), req, &out); err != nil {
		return nil, err
	}
	return out.Labels, nil
}

// predictWire runs one binary predict: the instances encoded as a stream
// of frames of at most chunk rows (0 = one frame), decoded label frames
// back. The frame body is assembled in a pooled buffer and retries resend
// it verbatim.
func (c *Client) predictWire(ctx context.Context, platform, modelID string, instances [][]float64, chunk int) ([]int, error) {
	payload := wire.GetBuffer()
	defer wire.PutBuffer(payload)
	*payload = wire.EncodeMatrixStream(*payload, instances, chunk)
	var labels []int
	err := c.doRaw(ctx, "predict", http.MethodPost, predictPath(platform, modelID),
		wire.ContentType, wire.ContentType, *payload, func(data []byte) error {
			var err error
			labels, err = wire.DecodeLabelsStream(bytes.NewReader(data))
			return err
		})
	if err != nil {
		return nil, err
	}
	return labels, nil
}

func predictPath(platform, modelID string) string {
	return "/v1/platforms/" + platform + "/models/" + modelID + "/predictions"
}

// PredictBatched queries a model in chunks of at most batch instances
// (batch <= 0 means DefaultPredictBatch) and stitches the labels back in
// instance order.
//
// On the JSON codec each chunk is its own logical request with the
// client's full retry/rate-limit discipline, so one flaky chunk does not
// resend the whole query set; the pooled transport keeps the chunks on one
// warm connection. On the binary codec the whole query set pipelines
// through a single request as a stream of batch-row frames — the server
// predicts frame by frame as they arrive, so there is no re-dial, no
// per-chunk HTTP overhead, and no giant contiguous payload on either side.
func (c *Client) PredictBatched(ctx context.Context, platform, modelID string, instances [][]float64, batch int) ([]int, error) {
	if batch <= 0 {
		batch = DefaultPredictBatch
	}
	if c.Codec == CodecBinary {
		return c.predictWire(ctx, platform, modelID, instances, batch)
	}
	if len(instances) <= batch {
		return c.Predict(ctx, platform, modelID, instances)
	}
	labels := make([]int, 0, len(instances))
	for start := 0; start < len(instances); start += batch {
		end := start + batch
		if end > len(instances) {
			end = len(instances)
		}
		part, err := c.Predict(ctx, platform, modelID, instances[start:end])
		if err != nil {
			return nil, fmt.Errorf("client: predict batch [%d:%d): %w", start, end, err)
		}
		labels = append(labels, part...)
	}
	return labels, nil
}

// Measure runs the paper's per-configuration measurement end-to-end over
// the wire: upload the training split, train with the config, query the
// held-out test set and score locally (the service never sees test labels,
// exactly as in the study).
func (c *Client) Measure(ctx context.Context, platform string, split dataset.Split, cfg pipeline.Config, seed uint64) (scores metrics.Scores, err error) {
	ctx, measure := c.startMeasure(ctx, platform, split, cfg)
	defer func() {
		measure.SetError(err)
		measure.End()
	}()
	upCtx, span := telemetry.StartSpan(ctx, "upload")
	dsID, err := c.Upload(upCtx, platform, split.Train)
	span.End()
	if err != nil {
		return metrics.Scores{}, fmt.Errorf("client: upload: %w", err)
	}
	return c.measureOn(ctx, platform, dsID, split, cfg, seed)
}

// MeasureOn is Measure for an already-uploaded dataset — the sweep path,
// where one upload serves many configurations.
func (c *Client) MeasureOn(ctx context.Context, platform, datasetID string, split dataset.Split, cfg pipeline.Config, seed uint64) (scores metrics.Scores, err error) {
	ctx, measure := c.startMeasure(ctx, platform, split, cfg)
	defer func() {
		measure.SetError(err)
		measure.End()
	}()
	return c.measureOn(ctx, platform, datasetID, split, cfg, seed)
}

// startMeasure routes telemetry to the client registry and opens the root
// "measure" span that every rpc/score child of one measurement hangs off.
func (c *Client) startMeasure(ctx context.Context, platform string, split dataset.Split, cfg pipeline.Config) (context.Context, *telemetry.Span) {
	if c.Telemetry != nil {
		ctx = telemetry.WithRegistry(ctx, c.Telemetry)
	}
	ctx, span := telemetry.StartSpan(ctx, "measure")
	span.SetAttr("platform", platform).SetAttr("dataset", split.Train.Name)
	if cfg.Classifier != "" {
		span.SetAttr("config", cfg.String())
	}
	return ctx, span
}

func (c *Client) measureOn(ctx context.Context, platform, datasetID string, split dataset.Split, cfg pipeline.Config, seed uint64) (metrics.Scores, error) {
	modelID, err := c.Train(ctx, platform, datasetID, cfg, seed)
	if err != nil {
		return metrics.Scores{}, fmt.Errorf("client: train: %w", err)
	}
	labels, err := c.PredictBatched(ctx, platform, modelID, split.Test.X, c.PredictBatch)
	if err != nil {
		return metrics.Scores{}, fmt.Errorf("client: predict: %w", err)
	}
	_, span := telemetry.StartSpan(ctx, "score")
	scores, err := metrics.Score(split.Test.Y, labels)
	span.End()
	if err != nil {
		return metrics.Scores{}, fmt.Errorf("client: score: %w", err)
	}
	return scores, nil
}
