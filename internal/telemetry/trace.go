package telemetry

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand/v2"
	"strings"
	"sync"
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

// Ids need to be unique across processes, not secret, so they come from
// math/rand/v2's per-thread ChaCha8 generator, which the runtime seeds from
// the system entropy source: no system call and no shared lock per id.

// NewRequestID returns a fresh 16-hex-char correlation id.
func NewRequestID() string { return formatSpanID(newSpanBits()) }

// NewTraceID returns a 32-hex-char trace id.
func NewTraceID() string {
	var b [16]byte
	var dst [32]byte
	binary.BigEndian.PutUint64(b[:8], newSpanBits())
	binary.BigEndian.PutUint64(b[8:], newSpanBits())
	hex.Encode(dst[:], b[:])
	return string(dst[:])
}

// NewSpanID returns a 16-hex-char span id.
func NewSpanID() string { return formatSpanID(newSpanBits()) }

// newSpanBits returns a random non-zero span id (W3C reserves all zeros).
func newSpanBits() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// formatSpanID encodes into a stack buffer, so the id string is the only
// allocation (hex.EncodeToString makes two).
func formatSpanID(id uint64) string {
	var b [8]byte
	var dst [16]byte
	binary.BigEndian.PutUint64(b[:], id)
	hex.Encode(dst[:], b[:])
	return string(dst[:])
}

// FormatTraceParent renders the header value for the given ids.
func FormatTraceParent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceParent splits a traceparent header value into its trace and
// span ids. It accepts only version 00 in its exact 55-byte layout
// ("00-" + 32 hex + "-" + 16 hex + "-" + 2 hex flags), rejects malformed or
// all-zero ids and malformed flags, and lowercases the hex, per the W3C
// recommendation. Lowercase ids are returned as slices of h, so the common
// case allocates nothing.
func ParseTraceParent(h string) (traceID, spanID string, ok bool) {
	h = strings.TrimSpace(h)
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	traceID, spanID = h[3:35], h[36:52]
	okT, upperT, zeroT := scanHex(traceID)
	okS, upperS, zeroS := scanHex(spanID)
	okF, _, _ := scanHex(h[53:])
	if !okT || !okS || !okF || zeroT || zeroS {
		return "", "", false
	}
	if upperT {
		traceID = strings.ToLower(traceID)
	}
	if upperS {
		spanID = strings.ToLower(spanID)
	}
	return traceID, spanID, true
}

// scanHex reports whether s is all hex digits, whether any of them is an
// uppercase letter, and whether all of them are zero. It looks each byte up
// in hexKind rather than branching on it: ids are random, so a branch per
// digit class mispredicts about half the time.
func scanHex(s string) (ok, upper, zero bool) {
	all, some := hexDigit, uint8(0)
	for i := 0; i < len(s); i++ {
		k := hexKind[s[i]]
		all &= k
		some |= k
	}
	return all&hexDigit != 0, some&hexUpper != 0, some&hexNonZero == 0
}

const (
	hexDigit uint8 = 1 << iota
	hexUpper
	hexNonZero
)

// hexKind classifies every byte value for scanHex; non-hex bytes are 0.
var hexKind = func() (t [256]uint8) {
	t['0'] = hexDigit
	for c := '1'; c <= '9'; c++ {
		t[c] = hexDigit | hexNonZero
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = hexDigit | hexNonZero
		t[c-'a'+'A'] = hexDigit | hexNonZero | hexUpper
	}
	return t
}()

type requestIDKey struct{}

// WithRequestID attaches a request id to the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return withValue[requestIDKey](ctx, id)
}

// RequestID returns the context's request id, or "" when absent.
func RequestID(ctx context.Context) string {
	id, _ := valueFrom[requestIDKey, string](ctx)
	return id
}

type spanKey struct{}

type registryKey struct{}

type remoteParentKey struct{}

type remoteParent struct{ traceID, spanID string }

// WithRegistry routes spans started under ctx into reg instead of Default.
func WithRegistry(ctx context.Context, reg *Registry) context.Context {
	return withValue[registryKey](ctx, reg)
}

func registryFrom(ctx context.Context) *Registry {
	if reg, _ := valueFrom[registryKey, *Registry](ctx); reg != nil {
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
	return withValue[remoteParentKey](ctx, remoteParent{traceID, spanID})
}

// ctxValue is a context carrying one value under the key type K, like
// context.WithValue, but holding the value unboxed: attaching a string or
// a struct takes one allocation instead of two, and a span carries its own
// (see Span.ctx), so starting one allocates no context at all. Value
// returns the *ctxValue itself; valueFrom unwraps it.
type ctxValue[K comparable, V any] struct {
	context.Context
	v V
}

func (c *ctxValue[K, V]) Value(key any) any {
	if _, ok := key.(K); ok {
		return c
	}
	return c.Context.Value(key)
}

func withValue[K comparable, V any](ctx context.Context, v V) context.Context {
	return &ctxValue[K, V]{ctx, v}
}

// valueFrom returns the value ctx carries under K, if any.
func valueFrom[K comparable, V any](ctx context.Context) (V, bool) {
	var k K
	c, ok := ctx.Value(k).(*ctxValue[K, V])
	if !ok {
		var zero V
		return zero, false
	}
	return c.v, true
}

// Span is one timed stage of a request or sweep, retained as a tree node.
// Ending the root freezes the tree and hands it to the registry's trace
// buffer (the flight recorder), which builds the exportable TraceData only
// when the trace is read. A root starts at time.Now; a child starts at the
// root's start advanced by the monotonic clock. Durations read only the
// monotonic clock, so they are immune to wall-clock adjustments
// mid-measurement, and a trace's start times never run backwards.
type Span struct {
	ctx    ctxValue[spanKey, *Span] // the context StartSpan returned; holds the parent's
	name   string
	start  time.Time
	reg    *Registry
	id     uint64 // rendered as 16 hex digits when read
	parent *Span  // nil on the root
	tr     *trace // the tree this span belongs to

	// Guarded by tr.mu. Once the root has ended the tree is frozen:
	// attributes, errors and spans added later are dropped, and a span
	// that ends later is marked late (shown unfinished).
	ended      bool
	late       bool
	dur        time.Duration
	errMsg     string
	attrs      []string // ordered key/value pairs
	firstChild *Span
	lastChild  *Span
	next       *Span // the next sibling under the same parent
}

// trace is the state one span tree shares, allocated together with its
// root span. All spans of a tree share its mutex; contention is negligible
// because a trace is at most a handful of goroutines deep.
type trace struct {
	root     Span
	traceID  string
	parentID string // the remote caller's span id, if any

	mu sync.Mutex
	// Guarded by mu.
	rootAttrs    [8]string // backs root.attrs up to four attributes
	spanCount    int
	droppedSpans int
	errMsg       string // the tree's first error, found when the root ends
}

// StartSpan begins a span named name under ctx. The returned context
// carries the span, so nested StartSpan calls build a parent/child tree;
// the span observes into the registry from WithRegistry (Default otherwise)
// under the StageHistogram family with a "stage" label. A span with no
// local parent becomes a trace root: it gets a fresh trace id (or joins the
// remote trace from WithRemoteParent), and its End delivers the finished
// tree to the registry's TraceBuffer. A span started under a root that has
// already ended still times itself but is not part of the trace.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	var parent *Span
	var reg *Registry
	if c, ok := ctx.(*ctxValue[spanKey, *Span]); ok {
		// ctx is a span's own context, so nothing was attached under it
		// since: the new span shares the parent's registry, and neither
		// lookup walks the context chain.
		parent, reg = c.v, c.v.reg
	} else {
		parent, reg = SpanFrom(ctx), registryFrom(ctx)
	}
	var sp *Span
	if parent == nil {
		tr := &trace{spanCount: 1}
		if rp, ok := valueFrom[remoteParentKey, remoteParent](ctx); ok {
			tr.traceID = rp.traceID
			tr.parentID = rp.spanID
		} else {
			tr.traceID = NewTraceID()
		}
		sp = &tr.root
		sp.tr = tr
	} else {
		sp = &Span{parent: parent, tr: parent.tr}
	}
	sp.name = name
	sp.reg = reg
	sp.id = newSpanBits()
	if parent == nil {
		sp.start = time.Now()
	} else {
		// A child reads only the monotonic clock (one clock read instead
		// of time.Now's two) and takes its wall time from the root's.
		root := &parent.tr.root
		sp.start = root.start.Add(time.Since(root.start))
		tr := parent.tr
		tr.mu.Lock()
		switch {
		case tr.root.ended:
		case tr.spanCount >= MaxSpansPerTrace:
			tr.droppedSpans++
		default:
			tr.spanCount++
			if parent.lastChild == nil {
				parent.firstChild = sp
			} else {
				parent.lastChild.next = sp
			}
			parent.lastChild = sp
		}
		tr.mu.Unlock()
	}
	sp.ctx = ctxValue[spanKey, *Span]{ctx, sp}
	return &sp.ctx, sp
}

// SpanFrom returns the innermost span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := valueFrom[spanKey, *Span](ctx)
	return sp
}

// Name returns the span's own name.
func (s *Span) Name() string { return s.name }

// Path returns the slash-joined ancestry, e.g. "measure/upload".
func (s *Span) Path() string {
	if s.parent == nil {
		return s.name
	}
	return s.parent.Path() + "/" + s.name
}

// TraceID returns the 32-hex trace id shared by every span in the tree.
func (s *Span) TraceID() string { return s.tr.traceID }

// SpanID returns this span's 16-hex id.
func (s *Span) SpanID() string { return formatSpanID(s.id) }

// SetAttr attaches (or replaces) a key/value attribute on the span, e.g.
// platform, dataset, config hash, cache hit/miss. Returns s for chaining.
func (s *Span) SetAttr(key, value string) *Span {
	tr := s.tr
	tr.mu.Lock()
	if !tr.root.ended {
		s.setAttrLocked(key, value)
	}
	tr.mu.Unlock()
	return s
}

func (s *Span) setAttrLocked(key, value string) {
	for i := 0; i+1 < len(s.attrs); i += 2 {
		if s.attrs[i] == key {
			s.attrs[i+1] = value
			return
		}
	}
	if s.attrs == nil {
		// Room for four attributes, the most a request span sets (the
		// server root and its forward span), so none regrows. A root's
		// room comes with its trace.
		if s.parent == nil {
			s.attrs = s.tr.rootAttrs[:0]
		} else {
			s.attrs = make([]string, 0, 8)
		}
	}
	s.attrs = append(s.attrs, key, value)
}

// SetError marks the span failed. Error traces are always kept by the
// flight recorder regardless of sampling. nil is a no-op.
func (s *Span) SetError(err error) *Span {
	if err == nil {
		return s
	}
	msg := err.Error()
	tr := s.tr
	tr.mu.Lock()
	if !tr.root.ended {
		s.errMsg = msg
	}
	tr.mu.Unlock()
	return s
}

// End stops the span, records its duration into the stage histogram and
// returns the duration. Safe to call more than once: only the first call
// records, and repeat calls return the originally recorded duration (not a
// still-growing fresh reading). Ending a root span freezes its tree and
// offers it to the registry's trace buffer.
func (s *Span) End() time.Duration {
	elapsed := time.Since(s.start)
	tr := s.tr
	tr.mu.Lock()
	if s.ended {
		d := s.dur
		tr.mu.Unlock()
		return d
	}
	s.late = tr.root.ended
	s.ended = true
	s.dur = elapsed
	d := s.dur
	isRoot := s.parent == nil
	if isRoot {
		tr.errMsg = s.firstErrorLocked()
	}
	errMsg := tr.errMsg
	tr.mu.Unlock()
	s.reg.Histogram(StageHistogram, "stage", s.name).Observe(d.Seconds())
	if isRoot {
		s.reg.Traces().offerTrace(tr, d, errMsg)
	}
	return d
}

// firstErrorLocked returns the first error in the subtree, parent before
// children, children in start order.
func (s *Span) firstErrorLocked() string {
	if s.errMsg != "" {
		return s.errMsg
	}
	for c := s.firstChild; c != nil; c = c.next {
		if msg := c.firstErrorLocked(); msg != "" {
			return msg
		}
	}
	return ""
}

// data builds the exportable form of the finished trace.
func (tr *trace) data() TraceData {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	root := tr.root.spanDataLocked(tr.root.name, tr.root.start.Add(tr.root.dur))
	return TraceData{
		TraceID:         tr.traceID,
		DurationSeconds: root.DurationSeconds,
		Spans:           tr.spanCount,
		DroppedSpans:    tr.droppedSpans,
		Error:           tr.errMsg,
		Root:            root,
	}
}

// summary is the index entry of the finished trace; it reads the root's
// own fields only.
func (tr *trace) summary() TraceSummary {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return TraceSummary{
		TraceID:         tr.traceID,
		Name:            tr.root.name,
		DurationSeconds: tr.root.dur.Seconds(),
		Spans:           tr.spanCount,
		Error:           tr.errMsg,
		StartUnixNano:   tr.root.start.UnixNano(),
	}
}

// spanDataLocked converts the span and its subtree; rootEnd is when the
// root ended. Callers hold tr.mu.
func (s *Span) spanDataLocked(path string, rootEnd time.Time) SpanData {
	d := s.dur
	unfinished := false
	if !s.ended || s.late {
		// A child still running when the root ended is recorded with the
		// duration it had reached then and flagged, rather than silently
		// vanishing.
		d = rootEnd.Sub(s.start)
		unfinished = true
	}
	parentID := s.tr.parentID
	if s.parent != nil {
		parentID = formatSpanID(s.parent.id)
	}
	sd := SpanData{
		SpanID:          formatSpanID(s.id),
		ParentID:        parentID,
		Name:            s.name,
		Path:            path,
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
	for c := s.firstChild; c != nil; c = c.next {
		sd.Children = append(sd.Children, c.spanDataLocked(path+"/"+c.name, rootEnd))
	}
	return sd
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
