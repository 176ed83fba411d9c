// Package telemetry is the measurement harness around the measurement
// harness: stdlib-only metrics and tracing for the service, client and
// sweep stack. The paper's five-month campaign (§3.2) lived and died by
// knowing what the platforms' web APIs were doing — latency, failures,
// retries — so this reproduction records the same signals about itself.
//
// The package provides three metric kinds, all safe for concurrent use and
// cheap enough for per-request hot paths (lock-free after first touch):
//
//   - Counter: a monotonically increasing int64 on atomics;
//   - Gauge:   a settable int64 (in-flight requests, queue depths);
//   - Histogram: bucketed latency distribution with atomic bucket counts,
//     exposing count, sum and interpolated quantiles (p50/p95/p99).
//
// Metrics live in a Registry, addressed by name plus ordered label pairs:
//
//	reg.Counter("mlaas_http_requests_total", "route", "predict", "class", "2xx").Inc()
//
// A Registry renders itself as Prometheus text exposition (WritePrometheus)
// and as a JSON snapshot (Snapshot); see expose.go. Tracing spans and
// request-ID propagation live in trace.go.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// StageHistogram is the histogram family that spans and Time record into;
// one series per pipeline stage (upload, featsel, preprocess, fit, predict,
// score, ...).
const StageHistogram = "mlaas_stage_duration_seconds"

// DefBuckets are the default histogram bucket upper bounds in seconds:
// exponential-ish from 100µs (an in-process fit on a tiny dataset) to 60s
// (a full-profile training call over the wire).
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// FineBuckets extend DefBuckets down to 5µs. The fit-once serving path
// answers forward-pass predicts in tens of microseconds; under DefBuckets
// every such observation lands in the first bucket and the quantiles
// collapse to ~100µs. The stage and predict-path families use these.
var FineBuckets = append([]float64{
	0.000005, 0.00001, 0.000025, 0.00005,
}, DefBuckets...)

// BatchSizeBuckets are power-of-two count buckets for histograms that
// observe sizes (rows per request) rather than durations.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// FrameBytesBuckets are power-of-four byte buckets for histograms that
// observe payload sizes — wide enough to span a 1-row frame (tens of
// bytes) through the 64 MiB frame cap.
var FrameBytesBuckets = []float64{
	64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864,
}

// FamilyBuckets overrides the bucket bounds Histogram() uses for specific
// families. Consulted only when the family is first created; explicit
// HistogramBuckets calls bypass it.
var FamilyBuckets = map[string][]float64{
	StageHistogram:            FineBuckets,
	PredictPathHistogram:      FineBuckets,
	PredictBatchSizeHistogram: BatchSizeBuckets,
	WireFrameBytesHistogram:   FrameBytesBuckets,
	GCPauseHistogram:          FineBuckets,
	SchedLatencyHistogram:     FineBuckets,
}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are a programming error and are ignored.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency histogram. Bucket bounds are upper
// bounds in seconds; observations above the last bound land in an implicit
// +Inf bucket. All mutation is atomic.
//
// The count is the sum of the buckets rather than a counter of its own, so
// an observation costs one atomic add fewer and the exposition's _count
// always equals its +Inf bucket.
type Histogram struct {
	bounds  []float64       // finite upper bounds, ascending
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum     atomic.Uint64   // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds}
	h.buckets = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one value (in seconds for latency histograms).
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// The first bound >= v. A scan beats a binary search over a couple
	// of dozen bounds, and most observations land in the first few.
	idx := 0
	for idx < len(h.bounds) && h.bounds[idx] < v {
		idx++
	}
	h.buckets[idx].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket holding the target rank. Observations in the +Inf
// bucket are attributed to the largest finite bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i := range h.buckets {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			cum += n
			continue
		}
		if cum+n >= rank {
			if i >= len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Bounds returns the histogram's finite bucket upper bounds (ascending).
// The returned slice is the histogram's own backing; callers must not
// mutate it.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// CumulativeBelow returns how many observations landed in buckets whose
// upper bound is <= v — the "good" count for a latency SLO whose threshold
// is v. Thresholds between bucket bounds round down to the nearest bound,
// so a threshold that does not align with a bucket is judged
// conservatively (fewer observations count as good).
func (h *Histogram) CumulativeBelow(v float64) uint64 {
	var cum uint64
	for i, bound := range h.bounds {
		if bound > v {
			break
		}
		cum += h.buckets[i].Load()
	}
	return cum
}

// snapshotBuckets returns cumulative counts aligned with bounds + the +Inf
// bucket, plus count and sum, read once.
func (h *Histogram) snapshotBuckets() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.buckets))
	var c uint64
	for i := range h.buckets {
		c += h.buckets[i].Load()
		cum[i] = c
	}
	return cum, c, h.Sum()
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// series is one labeled instance inside a family.
type series struct {
	kind   kind     // its family's
	labels []string // ordered name/value pairs
	metric any      // *Counter | *Gauge | *Histogram
}

// family groups all series of one metric name.
type family struct {
	name    string
	help    atomic.Pointer[string] // set by Describe at any time; read without a lock
	kind    kind
	buckets []float64 // histogram families only

	series atomic.Pointer[[]*series] // creation order (stable exposition)
}

// Registry holds metric families. The zero value is not usable; construct
// with NewRegistry (or use Default).
//
// A lookup of an existing series takes no lock: every series of every
// family sits in one copy-on-write map behind an atomic pointer, keyed by
// the metric name and its labels, so a hit is a single map read. Only the
// first sight of a new series takes mu.
type Registry struct {
	mu          sync.Mutex // serialises series creation, Describe and trace (re)configuration
	families    atomic.Pointer[map[string]*family]
	series      atomic.Pointer[map[string]*series] // by appendSeriesKey
	pendingHelp map[string]string                  // Describe calls before the family exists
	traces      atomic.Pointer[TraceBuffer]        // flight recorder; lazily built (tracebuf.go)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.families.Store(&map[string]*family{})
	r.series.Store(&map[string]*series{})
	return r
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Library code (pipeline stages,
// the measurement client) records here unless handed an explicit registry,
// so one bench run's numbers end up in one place.
func Default() *Registry { return defaultRegistry }

// Describe sets the help text rendered in the Prometheus exposition for a
// family. Safe to call before or after the family's first series exists.
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.family(name); f != nil {
		f.help.Store(&help)
		return
	}
	if r.pendingHelp == nil {
		r.pendingHelp = map[string]string{}
	}
	r.pendingHelp[name] = help
}

// family returns the named family, or nil.
func (r *Registry) family(name string) *family { return (*r.families.Load())[name] }

// appendSeriesKey appends the key of a series: the metric name and the
// label pairs, each followed by 0xff, a byte no UTF-8 name or label
// contains.
func appendSeriesKey(b []byte, name string, pairs []string) []byte {
	if len(pairs)%2 != 0 {
		panic("telemetry: labels must be name/value pairs")
	}
	b = append(append(b, name...), 0xff)
	for _, p := range pairs {
		b = append(append(b, p...), 0xff)
	}
	return b
}

// lookup returns the metric for name + label pairs, creating its family
// (with buckets) and series on first sight. A hit builds its key on the
// stack and allocates nothing. Panics when the name is registered as
// another kind.
func (r *Registry) lookup(name string, k kind, buckets []float64, pairs []string) any {
	var buf [192]byte
	key := appendSeriesKey(buf[:0], name, pairs)
	s, ok := (*r.series.Load())[string(key)]
	if !ok {
		s = r.add(string(key), name, k, buckets, pairs)
	}
	if s == nil || s.kind != k {
		panic(fmt.Sprintf("telemetry: %s registered as different metric kind", name))
	}
	return s.metric
}

// add creates the series for key, and its family when the name is new; a
// histogram family created with nil buckets gets its default bounds. It
// returns nil when the name is registered as another kind.
func (r *Registry) add(key, name string, k kind, buckets []float64, pairs []string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := *r.series.Load()
	if s, ok := old[key]; ok {
		return s
	}
	f := r.family(name)
	if f == nil {
		f = r.addFamilyLocked(name, k, buckets)
	}
	if f.kind != k {
		return nil
	}
	var m any
	switch k {
	case kindCounter:
		m = &Counter{}
	case kindGauge:
		m = &Gauge{}
	default:
		m = newHistogram(f.buckets)
	}
	s := &series{kind: k, labels: append([]string(nil), pairs...), metric: m}
	next := make(map[string]*series, len(old)+1)
	for sk, sv := range old {
		next[sk] = sv
	}
	next[key] = s
	r.series.Store(&next)
	order := *f.series.Load()
	order = append(order[:len(order):len(order)], s)
	f.series.Store(&order)
	return s
}

func (r *Registry) addFamilyLocked(name string, k kind, buckets []float64) *family {
	if k == kindHistogram && buckets == nil {
		buckets = DefBuckets
		if b, ok := FamilyBuckets[name]; ok {
			buckets = b
		}
	}
	f := &family{name: name, kind: k, buckets: buckets}
	f.series.Store(&[]*series{})
	if help, ok := r.pendingHelp[name]; ok {
		f.help.Store(&help)
		delete(r.pendingHelp, name)
	}
	old := *r.families.Load()
	next := make(map[string]*family, len(old)+1)
	for n, g := range old {
		next[n] = g
	}
	next[name] = f
	r.families.Store(&next)
	return f
}

// Counter returns (creating if needed) the counter for name + label pairs.
func (r *Registry) Counter(name string, labelPairs ...string) *Counter {
	return r.lookup(name, kindCounter, nil, labelPairs).(*Counter)
}

// Gauge returns (creating if needed) the gauge for name + label pairs.
func (r *Registry) Gauge(name string, labelPairs ...string) *Gauge {
	return r.lookup(name, kindGauge, nil, labelPairs).(*Gauge)
}

// Histogram returns (creating if needed) the histogram for name + label
// pairs. Bounds come from FamilyBuckets when the family has an override,
// DefBuckets otherwise.
func (r *Registry) Histogram(name string, labelPairs ...string) *Histogram {
	return r.lookup(name, kindHistogram, nil, labelPairs).(*Histogram)
}

// HistogramBuckets is Histogram with explicit bucket bounds. Bounds are
// fixed by the first registration of the family; later calls reuse them.
func (r *Registry) HistogramBuckets(name string, bounds []float64, labelPairs ...string) *Histogram {
	return r.lookup(name, kindHistogram, bounds, labelPairs).(*Histogram)
}

// SumCounters sums every counter series of the family whose labels include
// all the given name/value pairs (subset match; no pairs sums the whole
// family). Families that are not counters, or do not exist, sum to 0. The
// SLO watchdog uses it to collapse the per-platform dimension of the
// request counters into one per-route total.
func (r *Registry) SumCounters(name string, labelPairs ...string) int64 {
	f := r.family(name)
	if f == nil || f.kind != kindCounter {
		return 0
	}
	var total int64
	for _, s := range *f.series.Load() {
		if labelsInclude(s.labels, labelPairs) {
			total += s.metric.(*Counter).Value()
		}
	}
	return total
}

// labelsInclude reports whether the ordered label pairs contain every
// wanted name/value pair.
func labelsInclude(labels, want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		found := false
		for j := 0; j+1 < len(labels); j += 2 {
			if labels[j] == want[i] && labels[j+1] == want[i+1] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// walk visits every series of every family in deterministic order: families
// by name, series in creation order.
func (r *Registry) walk(visit func(f *family, labels []string, metric any)) {
	families := *r.families.Load()
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := families[name]
		for _, s := range *f.series.Load() {
			visit(f, s.labels, s.metric)
		}
	}
}
