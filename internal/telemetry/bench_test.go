package telemetry

import (
	"context"
	"testing"
)

// BenchmarkRequestTelemetry is the telemetry one replica pays per request:
// adopt the caller's traceparent, open a root span and three children, set
// five attributes, touch four metric series, and end every span into the
// default flight recorder.
func BenchmarkRequestTelemetry(b *testing.B) {
	reg := NewRegistry()
	base := WithRegistry(context.Background(), reg)
	header := FormatTraceParent(NewTraceID(), NewSpanID())
	request := func() {
		ctx := base
		if tid, sid, ok := ParseTraceParent(header); ok {
			ctx = WithRemoteParent(ctx, tid, sid)
		}
		ctx, root := StartSpan(ctx, "http:predict")
		root.SetAttr("route", "predict").SetAttr("request_id", "0123456789abcdef").SetAttr("platform", "local")
		reg.Counter(CodecRequestsTotal, "codec", "json").Inc()
		_, resolve := StartSpan(ctx, "model_resolve")
		resolve.SetAttr("path", "forward")
		resolve.End()
		fctx, forward := StartSpan(ctx, "forward")
		_, predict := StartSpan(fctx, "predict")
		predict.End()
		forward.End()
		reg.Histogram(PredictPathHistogram, "path", "forward").Observe(1e-5)
		root.SetAttr("status", "200")
		root.End()
		reg.Histogram("mlaas_http_request_duration_seconds", "route", "predict").Observe(1e-4)
		reg.Counter("mlaas_http_requests_total", "route", "predict", "platform", "local", "class", "2xx").Inc()
	}
	// One untimed request creates the series and the flight recorder, so
	// even a -benchtime 1x run times a request as a warm replica pays it.
	request()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
}

// BenchmarkMetricLookup is one hit on an existing labeled series: the
// lookup every instrumented call site does before it counts.
func BenchmarkMetricLookup(b *testing.B) {
	reg := NewRegistry()
	reg.Counter("mlaas_http_requests_total", "route", "predict", "platform", "local", "class", "2xx")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Counter("mlaas_http_requests_total", "route", "predict", "platform", "local", "class", "2xx").Inc()
	}
}
