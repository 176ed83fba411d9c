package service

import (
	"context"
	"net/http"
	"sync/atomic"

	"mlaasbench/internal/telemetry"
)

// DefaultAdmissionQueue is the waiting-room bound used when admission
// control is enabled without an explicit queue size.
const DefaultAdmissionQueue = 64

// admission is a bounded per-route admission queue: at most `concurrency`
// requests execute at once, at most `queue` more wait for a slot, and
// everything beyond that is shed immediately with 503 + Retry-After.
//
// The point is graceful degradation past saturation. An unbounded server
// past the knee queues work it will never catch up on: latency grows
// without bound, every request eventually times out, and goodput
// collapses. Shedding the excess instead keeps the admitted requests fast,
// so goodput stays pinned at capacity no matter how much load is offered —
// the open-loop sweep recorded in BENCH_PR7_SATURATION.json measured
// exactly this (flat goodput at 2x the knee instead of collapse).
type admission struct {
	route   string
	reg     func() *telemetry.Registry
	slots   chan struct{}
	queue   int
	waiting atomic.Int64
}

func newAdmission(route string, concurrency, queue int, reg func() *telemetry.Registry) *admission {
	if concurrency < 1 {
		concurrency = 1
	}
	if queue < 0 {
		queue = 0
	}
	return &admission{
		route: route,
		reg:   reg,
		slots: make(chan struct{}, concurrency),
		queue: queue,
	}
}

// admit tries to claim an execution slot, waiting in the bounded queue if
// none is free. It returns (release, true) on admission — the caller must
// invoke release exactly once — or (nil, false) when the request should be
// shed (queue full, or the caller's context died while waiting).
func (a *admission) admit(ctx context.Context) (func(), bool) {
	release := func() { <-a.slots }
	select {
	case a.slots <- struct{}{}: // free slot, no queueing
		a.reg().Counter(telemetry.AdmissionAdmittedTotal, "route", a.route).Inc()
		return release, true
	default:
	}
	depth := a.reg().Gauge(telemetry.AdmissionQueueDepth, "route", a.route)
	if n := a.waiting.Add(1); n > int64(a.queue) {
		a.waiting.Add(-1)
		a.reg().Counter(telemetry.AdmissionShedTotal, "route", a.route).Inc()
		return nil, false
	}
	depth.Inc()
	defer func() {
		a.waiting.Add(-1)
		depth.Dec()
	}()
	select {
	case a.slots <- struct{}{}:
		a.reg().Counter(telemetry.AdmissionAdmittedTotal, "route", a.route).Inc()
		return release, true
	case <-ctx.Done():
		a.reg().Counter(telemetry.AdmissionShedTotal, "route", a.route).Inc()
		return nil, false
	}
}

// WithAdmission bounds the predict route with an admission queue of
// `concurrency` executing slots and `queue` waiting slots, and returns the
// server (chainable). Requests beyond both bounds receive 503 with a
// Retry-After header instead of queueing unboundedly. concurrency <= 0
// disables admission control (the default: no behaviour change).
func (s *Server) WithAdmission(concurrency, queue int) *Server {
	if concurrency <= 0 {
		s.admit = nil
		return s
	}
	s.admit = newAdmission("predict", concurrency, queue, func() *telemetry.Registry { return s.reg })
	return s
}

// admitted wraps a handler with the admission gate when one is configured.
// Shed responses carry Retry-After: 1 — the client's backoff floor — and
// the structured "overloaded" error code so load generators can separate
// sheds from real failures.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		gate := s.admit
		if gate == nil {
			h(w, r)
			return
		}
		release, ok := gate.admit(r.Context())
		if !ok {
			w.Header().Set("Retry-After", "1")
			s.failCode(w, r, http.StatusServiceUnavailable, codeOverloaded,
				"admission queue full; retry after backoff")
			return
		}
		defer release()
		h(w, r)
	}
}
