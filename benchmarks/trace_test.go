package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A synthetic request: op 0..100 holds a transport 10..90, which holds a
// handler 20..70. The handler has two replayed children (15 and 25 long) that
// ran after the request, and the op has a replayed child of its own.
func syntheticTrace() []span {
	return []span{
		{Op: 1, ID: 1, Name: spanOp, StartNs: 0, EndNs: 100},
		{Op: 1, ID: 2, Parent: 1, Name: spanTransport, StartNs: 10, EndNs: 90},
		{Op: 1, ID: 3, Parent: 2, Name: spanHandler, StartNs: 20, EndNs: 70},
		{Op: 1, ID: 4, Parent: 3, Name: spanDecodeReq, Tag: "binary", Rows: 10, StartNs: 200, EndNs: 215, Replayed: true},
		{Op: 1, ID: 5, Parent: 3, Name: spanPredict, Tag: "knn", Rows: 10, StartNs: 215, EndNs: 240, Replayed: true},
		{Op: 1, ID: 6, Parent: 5, Name: spanFeatApply, Tag: "scaler", Rows: 10, StartNs: 240, EndNs: 245, Replayed: true},
		{Op: 1, ID: 7, Parent: 1, Name: spanEncodeReq, Tag: "binary", Rows: 10, StartNs: 245, EndNs: 250, Replayed: true},
	}
}

func TestSelfTimesNestedAndReplayed(t *testing.T) {
	self := selfTimes(syntheticTrace())
	want := map[int]int64{
		1: 100 - 80 - 5, // op: minus transport, minus its replayed encode
		2: 80 - 50,      // transport: minus the handler inside it
		3: 50 - 15 - 25, // handler: minus both replayed children
		4: 15,
		5: 25 - 5, // forward pass without the FEAT stage replayed under it
		6: 5,
		7: 5,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfTimesAdjacentOverlappingAndClamped(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", StartNs: 0, EndNs: 100},
		// Adjacent children: 10..40 and 40..60 cover 50.
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 40, EndNs: 60},
		// Overlaps b and runs past the parent's end: adds only 60..100.
		{ID: 4, Parent: 1, Name: "c", StartNs: 50, EndNs: 130},
		// A replay slower than the original cannot make self time negative.
		{ID: 5, Name: "fast", StartNs: 0, EndNs: 10},
		{ID: 6, Parent: 5, Name: "slow replay", StartNs: 20, EndNs: 50, Replayed: true},
	}
	self := selfTimes(spans)
	if self[1] != 10 {
		t.Errorf("parent self time %d, want 10 (only 0..10 is uncovered)", self[1])
	}
	if self[5] != 0 {
		t.Errorf("self time under a slower replay %d, want 0", self[5])
	}
}

func TestSpanMetricsFromSyntheticTrace(t *testing.T) {
	out := newLayerMetrics()
	addSpanMetrics(out, syntheticTrace())
	for name, want := range map[string]float64{
		"client.self_us":                     0.015,
		"client.transport_self_us":           0.030,
		"service.handler_us":                 0.050,
		"service.handler_self_us":            0.010,
		"classifiers.predict_ns_per_row.knn": 2,
		"pipeline.apply_ns_per_row.scaler":   0.5,
		"wire.decode_ns_per_row":             1.5,
		"wire.encode_ns_per_row":             0.5,
		"cluster.relay_self_us":              0, // no router span: the layer is bypassed
	} {
		if got := out[name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// The recorder parents a span on the innermost open one, across goroutines,
// and ignores everything while it is off.
func TestRecorderNesting(t *testing.T) {
	rec := newRecorder()
	if idx := rec.start(spanOp, "", 0); idx != -1 {
		t.Fatalf("recorder that is off handed out span %d", idx)
	}
	rec.enable(true)
	rec.nextOp()
	op := rec.start(spanOp, "", 0)
	tr := rec.start(spanTransport, "", 0)
	done := make(chan struct{})
	go func() { // the server side of the request
		h := rec.start(spanHandler, "", 0)
		rec.end(h)
		close(done)
	}()
	<-done
	rec.end(tr)
	rec.end(op)
	rec.replay(rec.lastNamed(spanHandler), spanPredict, "knn", 4, func() {})
	spans := rec.snapshot()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(spans))
	}
	parents := []int{0, spans[0].ID, spans[1].ID, spans[2].ID}
	for i, s := range spans {
		if s.Parent != parents[i] || s.Op != 1 {
			t.Errorf("span %d (%s): parent %d op %d, want parent %d op 1", i, s.Name, s.Parent, s.Op, parents[i])
		}
	}
	if !spans[3].Replayed || spans[3].Rows != 4 {
		t.Errorf("replayed span recorded as %+v", spans[3])
	}

	path := filepath.Join(t.TempDir(), "out", "x.trace.jsonl")
	if err := writeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n != len(spans) {
		t.Errorf("trace file has %d lines, want %d", n, len(spans))
	}
}
