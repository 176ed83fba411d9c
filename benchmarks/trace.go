package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. A span is recorded by the driver around a call into one layer;
// nothing inside the program under test is instrumented.
const (
	spanOp         = "op"                  // the client call, caller side
	spanTransport  = "client.transport"    // RoundTripper under the client
	spanRouter     = "cluster.router"      // the router's http.Handler
	spanHandler    = "service.handler"     // a replica's http.Handler
	spanEncodeReq  = "wire.encode_request" // replay under op: rows → request body
	spanDecodeReq  = "wire.decode_request" // replay under handler: request body → rows
	spanPredict    = "model.predict"       // replay under handler: FittedModel.Predict
	spanFeatApply  = "pipeline.apply"      // replay under model.predict: fitted FEAT alone
	spanEncodeResp = "wire.encode_labels"  // replay under handler: labels → response body
	spanDecodeResp = "wire.decode_labels"  // replay under op: response body → labels
	spanSample     = "sweep.sample"        // one decomposed sweep measurement
	spanSynth      = "synth.generate"      // sweep sample
	spanFitFeat    = "pipeline.fit_feat"   // sweep sample
	spanFit        = "platforms.fit"       // sweep sample and serve set-up
	spanScore      = "metrics.score"       // sweep sample
	maxTraceSpans  = 1 << 18
)

// span is one timed interval. Replayed marks a child that re-ran work its
// parent did (the driver cannot see inside the handler, so it repeats the
// decode, forward pass and encode on the same bytes afterwards): its interval
// lies outside the parent's, and its whole duration counts as covered time.
type span struct {
	Op       int    `json:"op"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Tag      string `json:"tag,omitempty"` // family, platform or FEAT kind
	Rows     int    `json:"rows,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// recorder keeps spans in memory until the run ends. One traced client runs
// at a time, so the innermost open span of the live op is the parent of the
// next span to start; the mutex only orders the client goroutine against the
// server goroutines handling its request.
type recorder struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
	open  []int // stack of indexes into spans
	op    int
	drops int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// enable switches recording. The span buffer is allocated on first use so
// the untraced phase of a traced run keeps the heap of an untraced run.
func (r *recorder) enable(on bool) {
	r.mu.Lock()
	if on && r.spans == nil {
		r.spans = make([]span, 0, maxTraceSpans)
	}
	r.on = on
	r.mu.Unlock()
}

// nextOp starts a new op id; spans recorded until the next call share it.
func (r *recorder) nextOp() {
	r.mu.Lock()
	r.op++
	r.open = r.open[:0]
	r.mu.Unlock()
}

// start opens a span under the innermost open one and returns its handle
// (-1 when tracing is off or the buffer is full).
func (r *recorder) start(name, tag string, rows int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on {
		return -1
	}
	if len(r.spans) == cap(r.spans) {
		r.drops++
		return -1
	}
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{Op: r.op, ID: idx + 1, Parent: parent, Name: name, Tag: tag,
		Rows: rows, StartNs: int64(time.Since(r.t0))})
	r.open = append(r.open, idx)
	return idx
}

func (r *recorder) end(idx int) {
	if idx < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[idx].EndNs = int64(time.Since(r.t0))
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == idx {
			r.open = append(r.open[:i], r.open[i+1:]...)
			break
		}
	}
}

// replay times fn and records it as a replayed child of parentIdx, returning
// the new span's handle (-1 if it was not recorded).
func (r *recorder) replay(parentIdx int, name, tag string, rows int, fn func()) int {
	start := time.Since(r.t0)
	fn()
	end := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on || parentIdx < 0 {
		return -1
	}
	if len(r.spans) == cap(r.spans) {
		r.drops++
		return -1
	}
	p := r.spans[parentIdx]
	r.spans = append(r.spans, span{Op: p.Op, ID: len(r.spans) + 1, Parent: p.ID, Name: name, Tag: tag,
		Rows: rows, StartNs: int64(start), EndNs: int64(end), Replayed: true})
	return len(r.spans) - 1
}

// lastNamed returns the index of the newest span of the live op with the
// given name, -1 if none.
func (r *recorder) lastNamed(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.spans) - 1; i >= 0 && r.spans[i].Op == r.op; i-- {
		if r.spans[i].Name == name {
			return i
		}
	}
	return -1
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// tracedHandler records a span around every request the handler serves.
func tracedHandler(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		idx := rec.start(name, "", 0)
		h.ServeHTTP(w, req)
		rec.end(idx)
	})
}

// tracedTransport records a span around every round trip.
type tracedTransport struct {
	rec  *recorder
	next http.RoundTripper
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	idx := t.rec.start(spanTransport, "", 0)
	resp, err := t.next.RoundTrip(req)
	t.rec.end(idx)
	return resp, err
}

// selfTimes returns each span's self time in nanoseconds, keyed by span id:
// its duration minus the part its children cover. Children that ran inside
// the parent cover the union of their intervals clipped to the parent's, so
// overlapping or adjacent children are not counted twice; replayed children
// cover their full duration. Self time never goes below zero (a replay can
// run slower than the original did).
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	children := map[int][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for id, s := range byID {
		var covered int64
		var inside []span
		for _, c := range children[id] {
			if c.Replayed {
				covered += c.dur()
			} else {
				inside = append(inside, c)
			}
		}
		sort.Slice(inside, func(i, j int) bool { return inside[i].StartNs < inside[j].StartNs })
		edge := s.StartNs
		for _, c := range inside {
			lo, hi := max(c.StartNs, edge), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[id] = max(s.dur()-covered, 0)
	}
	return self
}

// writeTrace writes the spans as JSON lines.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
