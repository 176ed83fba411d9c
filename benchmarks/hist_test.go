package main

import (
	"math"
	"sort"
	"testing"
	"time"

	"mlaasbench/internal/rng"
)

// The histogram's quantiles must stay within 1 % of a sorted-slice oracle on
// a latency-shaped sample: log-normal body, a slow second mode.
func TestHistQuantileWithinOnePercent(t *testing.T) {
	r := rng.New(7)
	h := newHist()
	var exact []float64
	for i := 0; i < 50000; i++ {
		ns := math.Exp(r.Normal(math.Log(250e3), 0.6))
		if i%20 == 0 {
			ns = math.Exp(r.Normal(math.Log(7e6), 0.2))
		}
		d := time.Duration(ns)
		h.record(d)
		exact = append(exact, float64(d))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		want := exact[int(math.Ceil(q*float64(len(exact))))-1]
		got := h.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q=%v: histogram %v, sorted slice %v, off by %.2f%%", q, got, want, 100*rel)
		}
	}
}

func TestHistEdges(t *testing.T) {
	h := newHist()
	if got := h.quantile(0.5); got != 0 {
		t.Errorf("empty histogram: quantile %v, want 0", got)
	}
	h.record(0)
	h.record(200 * time.Second) // past the last bucket: clamped, not dropped
	if h.n != 2 {
		t.Fatalf("recorded %d samples, want 2", h.n)
	}
	if got := h.quantile(1); got < 0.98*histMaxNs {
		t.Errorf("clamped sample reads %v, want about %v", got, histMaxNs)
	}
	o := newHist()
	o.record(time.Millisecond)
	h.merge(o)
	if h.n != 3 {
		t.Errorf("merged count %d, want 3", h.n)
	}
}

// The record path runs inside the measured window next to the servers; one
// allocation per op there would change the GC cadence being measured.
func TestHistRecordDoesNotAllocate(t *testing.T) {
	h := newHist()
	d := 137 * time.Microsecond
	if n := testing.AllocsPerRun(1000, func() { h.record(d); d += time.Microsecond }); n != 0 {
		t.Errorf("record allocates %v times per call, want 0", n)
	}
}

func TestOpStreamDoesNotAllocate(t *testing.T) {
	p, err := buildServePlan(wChurn, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := newOpStream(p, 1, 0)
	if n := testing.AllocsPerRun(1000, func() { s.next() }); n != 0 {
		t.Errorf("next allocates %v times per call, want 0", n)
	}
}
