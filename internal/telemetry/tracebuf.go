// The flight recorder: finished trace trees land in a bounded ring buffer
// per registry, with a keep policy tuned for post-hoc debugging — errors
// are always kept, the slowest traces seen so far are always kept, and the
// rest are tail-sampled with a deterministic (internal/rng-seeded) coin so
// tests can assert exactly which traces survive.
package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"mlaasbench/internal/rng"
)

// SpanData is the exportable form of one finished span.
type SpanData struct {
	SpanID          string            `json:"span_id"`
	ParentID        string            `json:"parent_id,omitempty"`
	Name            string            `json:"name"`
	Path            string            `json:"path"`
	StartUnixNano   int64             `json:"start_unix_nano"`
	DurationSeconds float64           `json:"duration_seconds"`
	Error           string            `json:"error,omitempty"`
	Attrs           map[string]string `json:"attrs,omitempty"`
	Children        []SpanData        `json:"children,omitempty"`
	// Unfinished marks a span that was still running when its root ended;
	// DurationSeconds is then the duration-so-far at snapshot time.
	Unfinished bool `json:"unfinished,omitempty"`
}

// TraceData is one finished trace tree, as stored in the buffer, served by
// /debug/traces/{id}, and exported as one JSONL line.
type TraceData struct {
	TraceID         string   `json:"trace_id"`
	DurationSeconds float64  `json:"duration_seconds"`
	Spans           int      `json:"spans"`
	DroppedSpans    int      `json:"dropped_spans,omitempty"`
	Error           string   `json:"error,omitempty"`
	Root            SpanData `json:"root"`
}

// TraceSummary is the index-listing form of a stored trace (GET
// /debug/traces).
type TraceSummary struct {
	TraceID         string  `json:"trace_id"`
	Name            string  `json:"name"`
	DurationSeconds float64 `json:"duration_seconds"`
	Spans           int     `json:"spans"`
	Error           string  `json:"error,omitempty"`
	StartUnixNano   int64   `json:"start_unix_nano"`
}

// TraceConfig tunes a registry's flight recorder.
type TraceConfig struct {
	// Capacity is the ring size; when full, the oldest kept trace is
	// evicted FIFO. <=0 means the default (256).
	Capacity int
	// KeepSlowest admits any trace slower than the KeepSlowest-th slowest
	// admitted so far, regardless of sampling. 0 disables the heuristic.
	KeepSlowest int
	// SampleRate is the probability a trace that is neither an error nor
	// among the slowest is kept. 1 keeps everything, 0 keeps none.
	SampleRate float64
	// Seed feeds the deterministic sampling coin (internal/rng), so a
	// fixed seed plus a fixed offer order always keeps the same traces.
	Seed uint64
}

// DefaultTraceConfig keeps every trace up to capacity — the right default
// for bench runs and tests; servers under load lower SampleRate.
func DefaultTraceConfig() TraceConfig {
	return TraceConfig{Capacity: 256, KeepSlowest: 16, SampleRate: 1.0, Seed: 1}
}

func (c TraceConfig) normalized() TraceConfig {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.KeepSlowest < 0 {
		c.KeepSlowest = 0
	}
	if c.SampleRate < 0 {
		c.SampleRate = 0
	}
	if c.SampleRate > 1 {
		c.SampleRate = 1
	}
	return c
}

// TraceBuffer is the bounded, sampling-aware ring of kept traces. All
// methods are safe for concurrent use.
//
// The ring holds finished span trees, not copies: a kept trace is built
// into its TraceData only when it is read (Snapshot, Get), and Summaries
// reads the root's own fields without building its children. A finished
// trace never changes (see Span.End), so a read returns the same bytes
// whenever it happens.
type TraceBuffer struct {
	reg *Registry

	mu      sync.Mutex
	cfg     TraceConfig
	buf     []*trace
	head    int // index of the oldest kept trace
	n       int
	coin    *rng.RNG
	slowest []float64 // ascending durations of the slowest-N admitted
}

func newTraceBuffer(cfg TraceConfig, reg *Registry) *TraceBuffer {
	cfg = cfg.normalized()
	return &TraceBuffer{
		reg:  reg,
		cfg:  cfg,
		buf:  make([]*trace, cfg.Capacity),
		coin: rng.New(cfg.Seed).Split("telemetry/traces"),
	}
}

// Traces returns the registry's flight recorder, creating it with
// DefaultTraceConfig on first use.
func (r *Registry) Traces() *TraceBuffer {
	if b := r.traces.Load(); b != nil {
		return b
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if b := r.traces.Load(); b != nil {
		return b
	}
	b := newTraceBuffer(DefaultTraceConfig(), r)
	r.traces.Store(b)
	return b
}

// ConfigureTraces replaces the registry's flight recorder with a fresh one
// using cfg (normalizing out-of-range fields). Existing kept traces are
// discarded.
func (r *Registry) ConfigureTraces(cfg TraceConfig) *TraceBuffer {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := newTraceBuffer(cfg, r)
	r.traces.Store(b)
	return b
}

// offer applies the keep policy to a trace in exported form. The trace is
// kept as a finished tree of its root alone, carrying the trace id, the
// root's name and start, the duration and the error.
func (b *TraceBuffer) offer(t TraceData) {
	d := time.Duration(t.DurationSeconds * float64(time.Second))
	tr := &trace{traceID: t.TraceID, errMsg: t.Error}
	tr.root = Span{name: t.Root.Name, start: time.Unix(0, t.Root.StartUnixNano), tr: tr, ended: true, dur: d}
	b.offerTrace(tr, d, t.Error)
}

// offerTrace applies the keep policy to a finished span tree, given its
// root's duration and the tree's first error, and counts the verdict.
func (b *TraceBuffer) offerTrace(tr *trace, d time.Duration, errMsg string) {
	b.mu.Lock()
	reason := b.keepReasonLocked(d.Seconds(), errMsg)
	evicted := false
	if reason != "" {
		evicted = b.pushLocked(tr)
	}
	b.mu.Unlock()
	// Counters are recorded outside b.mu: creating a series takes the
	// registry lock, which is also held while constructing this buffer.
	if reason == "" {
		b.reg.Counter(TracesDroppedTotal).Inc()
		return
	}
	b.reg.Counter(TracesKeptTotal, "reason", reason).Inc()
	if evicted {
		b.reg.Counter(TracesEvictedTotal).Inc()
	}
}

func (b *TraceBuffer) keepReasonLocked(durSeconds float64, errMsg string) string {
	if errMsg != "" {
		return "error"
	}
	if b.cfg.KeepSlowest > 0 && (len(b.slowest) < b.cfg.KeepSlowest || durSeconds > b.slowest[0]) {
		b.admitSlowestLocked(durSeconds)
		return "slowest"
	}
	if b.cfg.SampleRate >= 1 {
		return "sampled"
	}
	if b.cfg.SampleRate > 0 && b.coin.Float64() < b.cfg.SampleRate {
		return "sampled"
	}
	return ""
}

// admitSlowestLocked inserts d into the ascending slowest-N list, dropping
// the smallest entry when over capacity. N is small (default 16), so the
// O(N) insertion is cheaper than a heap's bookkeeping.
func (b *TraceBuffer) admitSlowestLocked(d float64) {
	i := 0
	for i < len(b.slowest) && b.slowest[i] < d {
		i++
	}
	b.slowest = append(b.slowest, 0)
	copy(b.slowest[i+1:], b.slowest[i:])
	b.slowest[i] = d
	if len(b.slowest) > b.cfg.KeepSlowest {
		b.slowest = b.slowest[1:]
	}
}

// pushLocked appends to the ring, evicting the oldest trace when full.
// Reports whether an eviction happened.
func (b *TraceBuffer) pushLocked(tr *trace) bool {
	if b.n < len(b.buf) {
		b.buf[(b.head+b.n)%len(b.buf)] = tr
		b.n++
		return false
	}
	b.buf[b.head] = tr
	b.head = (b.head + 1) % len(b.buf)
	return true
}

// kept returns the kept traces, oldest first.
func (b *TraceBuffer) kept() []*trace {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*trace, b.n)
	for i := range out {
		out[i] = b.buf[(b.head+i)%len(b.buf)]
	}
	return out
}

// Len returns how many traces are currently kept.
func (b *TraceBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Snapshot returns the kept traces, oldest first.
func (b *TraceBuffer) Snapshot() []TraceData {
	kept := b.kept()
	out := make([]TraceData, len(kept))
	for i, tr := range kept {
		out[i] = tr.data()
	}
	return out
}

// Get returns the kept trace with the given id.
func (b *TraceBuffer) Get(traceID string) (TraceData, bool) {
	for _, tr := range b.kept() {
		if tr.traceID == traceID {
			return tr.data(), true
		}
	}
	return TraceData{}, false
}

// Summaries returns index entries for the kept traces, newest first (the
// order a human debugging "what just went slow" wants).
func (b *TraceBuffer) Summaries() []TraceSummary {
	kept := b.kept()
	out := make([]TraceSummary, len(kept))
	for i, tr := range kept {
		out[len(kept)-1-i] = tr.summary()
	}
	return out
}

// WriteTraceJSONL writes one JSON object per line — the export format
// consumed by cmd/mlaas-trace.
func WriteTraceJSONL(w io.Writer, traces []TraceData) error {
	enc := json.NewEncoder(w)
	for _, t := range traces {
		if err := enc.Encode(t); err != nil {
			return err
		}
	}
	return nil
}

// ReadTraceJSONL reads traces written by WriteTraceJSONL.
func ReadTraceJSONL(r io.Reader) ([]TraceData, error) {
	dec := json.NewDecoder(r)
	var out []TraceData
	for {
		var t TraceData
		if err := dec.Decode(&t); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, t)
	}
}
