package telemetry

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the HTTP header carrying the per-request correlation
// id. The client generates it, the service echoes it, and both sides stamp
// it into error messages so one failing sweep measurement can be matched to
// its server-side log line.
const RequestIDHeader = "X-Request-ID"

// TraceParentHeader carries the trace context over HTTP in the W3C
// traceparent layout: "00-<32 hex trace id>-<16 hex span id>-01". The
// client injects it from its in-flight RPC span; the service adopts the
// trace id and parents its server span under the client span, so one
// train or predict call renders as a single stitched tree.
const TraceParentHeader = "Traceparent"

// MaxSpansPerTrace bounds how many spans a single trace retains. Spans
// started past the cap still time themselves and record into the stage
// histogram, but are not attached to the tree; the trace reports how many
// were dropped. The cap exists so a runaway loop cannot turn one trace
// into an unbounded memory leak.
const MaxSpansPerTrace = 4096

var idFallback atomic.Uint64

// NewRequestID returns a fresh 16-hex-char correlation id. Randomness comes
// from crypto/rand; on the (practically impossible) failure of the system
// entropy source it degrades to a process-local counter.
func NewRequestID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%08d", idFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// NewTraceID returns a 32-hex-char trace id (valid in a traceparent header
// even under the entropy-failure fallback).
func NewTraceID() string {
	var b [16]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return fmt.Sprintf("%032x", idFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// NewSpanID returns a 16-hex-char span id.
func NewSpanID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return fmt.Sprintf("%016x", idFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// FormatTraceParent renders the header value for the given ids.
func FormatTraceParent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceParent splits a traceparent header value into its trace and
// span ids. It accepts only version 00, rejects malformed or all-zero ids,
// and lowercases the hex, per the W3C recommendation.
func ParseTraceParent(h string) (traceID, spanID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || parts[0] != "00" {
		return "", "", false
	}
	traceID = strings.ToLower(parts[1])
	spanID = strings.ToLower(parts[2])
	if len(traceID) != 32 || len(spanID) != 16 || !isHex(traceID) || !isHex(spanID) {
		return "", "", false
	}
	if traceID == strings.Repeat("0", 32) || spanID == strings.Repeat("0", 16) {
		return "", "", false
	}
	return traceID, spanID, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

type requestIDKey struct{}

// WithRequestID attaches a request id to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's request id, or "" when absent.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

type spanKey struct{}

type registryKey struct{}

type remoteParentKey struct{}

type remoteParent struct{ traceID, spanID string }

// WithRegistry routes spans started under ctx into reg instead of Default.
func WithRegistry(ctx context.Context, reg *Registry) context.Context {
	return context.WithValue(ctx, registryKey{}, reg)
}

func registryFrom(ctx context.Context) *Registry {
	if reg, ok := ctx.Value(registryKey{}).(*Registry); ok && reg != nil {
		return reg
	}
	return Default()
}

// RegistryFrom returns the registry carried by ctx (see WithRegistry), or
// Default. Library code that records metrics outside a span should use this
// so isolated registries (tests, per-arm load generators) see the traffic.
func RegistryFrom(ctx context.Context) *Registry { return registryFrom(ctx) }

// WithRemoteParent marks ctx so the next root span started under it joins
// the remote caller's trace: it adopts traceID and records spanID as its
// parent. Ids of the wrong width are ignored (the span starts a new trace).
func WithRemoteParent(ctx context.Context, traceID, spanID string) context.Context {
	if len(traceID) != 32 || len(spanID) != 16 {
		return ctx
	}
	return context.WithValue(ctx, remoteParentKey{}, remoteParent{traceID, spanID})
}

// Span is one timed stage of a request or sweep, retained as a tree node:
// ending the root span snapshots the whole tree into the registry's trace
// buffer (the flight recorder). Start times use time.Now, whose monotonic
// clock reading makes End durations immune to wall-clock adjustments
// mid-measurement.
//
// All spans of a tree share the root's mutex; contention is negligible
// because a trace is at most a handful of goroutines deep.
type Span struct {
	name     string
	path     string
	start    time.Time
	reg      *Registry
	traceID  string
	spanID   string
	parentID string
	root     *Span

	mu sync.Mutex // meaningful on the root only; guards the whole tree

	// Guarded by root.mu.
	ended    bool
	dur      time.Duration
	errMsg   string
	attrs    []string // ordered key/value pairs
	children []*Span

	// Root-only, guarded by root.mu.
	spanCount    int
	droppedSpans int
}

// StartSpan begins a span named name under ctx. The returned context
// carries the span, so nested StartSpan calls build a parent/child tree;
// the span observes into the registry from WithRegistry (Default otherwise)
// under the StageHistogram family with a "stage" label. A span with no
// local parent becomes a trace root: it gets a fresh trace id (or joins the
// remote trace from WithRemoteParent), and its End delivers the finished
// tree to the registry's TraceBuffer.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{
		name:   name,
		path:   name,
		start:  time.Now(),
		reg:    registryFrom(ctx),
		spanID: NewSpanID(),
	}
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		root := parent.root
		sp.path = parent.path + "/" + name
		sp.traceID = root.traceID
		sp.parentID = parent.spanID
		sp.root = root
		root.mu.Lock()
		if root.spanCount >= MaxSpansPerTrace {
			root.droppedSpans++
		} else {
			root.spanCount++
			parent.children = append(parent.children, sp)
		}
		root.mu.Unlock()
	} else {
		sp.root = sp
		sp.spanCount = 1
		if rp, ok := ctx.Value(remoteParentKey{}).(remoteParent); ok {
			sp.traceID = rp.traceID
			sp.parentID = rp.spanID
		} else {
			sp.traceID = NewTraceID()
		}
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// SpanFrom returns the innermost span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Name returns the span's own name.
func (s *Span) Name() string { return s.name }

// Path returns the slash-joined ancestry, e.g. "measure/upload".
func (s *Span) Path() string { return s.path }

// TraceID returns the 32-hex trace id shared by every span in the tree.
func (s *Span) TraceID() string { return s.traceID }

// SpanID returns this span's 16-hex id.
func (s *Span) SpanID() string { return s.spanID }

// SetAttr attaches (or replaces) a key/value attribute on the span, e.g.
// platform, dataset, config hash, cache hit/miss. Returns s for chaining.
func (s *Span) SetAttr(key, value string) *Span {
	root := s.root
	root.mu.Lock()
	for i := 0; i+1 < len(s.attrs); i += 2 {
		if s.attrs[i] == key {
			s.attrs[i+1] = value
			root.mu.Unlock()
			return s
		}
	}
	s.attrs = append(s.attrs, key, value)
	root.mu.Unlock()
	return s
}

// SetError marks the span failed. Error traces are always kept by the
// flight recorder regardless of sampling. nil is a no-op.
func (s *Span) SetError(err error) *Span {
	if err == nil {
		return s
	}
	root := s.root
	root.mu.Lock()
	s.errMsg = err.Error()
	root.mu.Unlock()
	return s
}

// End stops the span, records its duration into the stage histogram and
// returns the duration. Safe to call more than once: only the first call
// records, and repeat calls return the originally recorded duration (not a
// still-growing fresh reading). Ending a root span snapshots the finished
// tree into the registry's trace buffer.
func (s *Span) End() time.Duration {
	now := time.Now()
	root := s.root
	root.mu.Lock()
	if s.ended {
		d := s.dur
		root.mu.Unlock()
		return d
	}
	s.ended = true
	s.dur = now.Sub(s.start)
	d := s.dur
	var finished *TraceData
	if s == root {
		t := root.snapshotLocked(now)
		finished = &t
	}
	root.mu.Unlock()
	s.reg.Histogram(StageHistogram, "stage", s.name).Observe(d.Seconds())
	if finished != nil {
		s.reg.Traces().offer(*finished)
	}
	return d
}

// snapshotLocked converts the finished tree into its exportable form.
// Callers hold root.mu; s must be the root.
func (s *Span) snapshotLocked(now time.Time) TraceData {
	rootData := s.snapshotSpanLocked(now)
	td := TraceData{
		TraceID:         s.traceID,
		DurationSeconds: rootData.DurationSeconds,
		Spans:           s.spanCount,
		DroppedSpans:    s.droppedSpans,
		Root:            rootData,
	}
	td.Error = firstError(&td.Root)
	return td
}

func (s *Span) snapshotSpanLocked(now time.Time) SpanData {
	d := s.dur
	unfinished := false
	if !s.ended {
		// A child still running when the root ends is recorded with its
		// duration-so-far and flagged, rather than silently vanishing.
		d = now.Sub(s.start)
		unfinished = true
	}
	sd := SpanData{
		SpanID:          s.spanID,
		ParentID:        s.parentID,
		Name:            s.name,
		Path:            s.path,
		StartUnixNano:   s.start.UnixNano(),
		DurationSeconds: d.Seconds(),
		Error:           s.errMsg,
		Unfinished:      unfinished,
	}
	if len(s.attrs) > 0 {
		sd.Attrs = make(map[string]string, len(s.attrs)/2)
		for i := 0; i+1 < len(s.attrs); i += 2 {
			sd.Attrs[s.attrs[i]] = s.attrs[i+1]
		}
	}
	for _, c := range s.children {
		sd.Children = append(sd.Children, c.snapshotSpanLocked(now))
	}
	return sd
}

func firstError(sd *SpanData) string {
	if sd.Error != "" {
		return sd.Error
	}
	for i := range sd.Children {
		if msg := firstError(&sd.Children[i]); msg != "" {
			return msg
		}
	}
	return ""
}

// Time starts a stage timer on the registry; the returned func stops it and
// records into the stage histogram. For hot paths without a context:
//
//	stop := reg.Time("fit")
//	clf.Fit(...)
//	stop()
func (r *Registry) Time(stage string) func() time.Duration {
	start := time.Now()
	return func() time.Duration {
		d := time.Since(start)
		r.Histogram(StageHistogram, "stage", stage).Observe(d.Seconds())
		return d
	}
}

// TimeCtx times a stage under ctx: when ctx carries a span the stage
// becomes a child span (so it lands in the trace tree AND the stage
// histogram — one observation, two views, which is what keeps trace sums
// and histogram sums reconcilable); otherwise it degrades to a plain
// registry timer on ctx's registry.
func TimeCtx(ctx context.Context, stage string) func() time.Duration {
	if SpanFrom(ctx) != nil {
		_, sp := StartSpan(ctx, stage)
		return sp.End
	}
	return registryFrom(ctx).Time(stage)
}

// WriteDefaultSummary writes the Default registry's summary — what
// mlaas-bench prints when a run finishes.
func WriteDefaultSummary(w io.Writer) { WriteSummary(w, Default()) }
