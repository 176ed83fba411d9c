package main

import (
	"math"
	"time"
)

// Histogram geometry: buckets grow by 1 % from 1 µs to 100 s, so a quantile
// read from a bucket's geometric midpoint is within 0.5 % of any value the
// bucket holds.
const (
	histMinNs  = 1e3
	histMaxNs  = 1e11
	histGrowth = 1.01
)

var (
	histInvLogGrowth = 1 / math.Log(histGrowth)
	histBuckets      = int(math.Ceil(math.Log(histMaxNs/histMinNs)*histInvLogGrowth)) + 1
)

// hist is a fixed log-bucket latency histogram. The whole table is allocated
// up front and record never allocates: the harness shares a heap with the
// servers it measures, whose GC pace follows the live heap, so a harness
// whose heap grew during the window would change the server's speed.
type hist struct {
	counts []uint64
	n      uint64
}

func newHist() *hist { return &hist{counts: make([]uint64, histBuckets)} }

func (h *hist) record(d time.Duration) {
	i := 0
	if ns := float64(d); ns > histMinNs {
		i = int(math.Log(ns/histMinNs) * histInvLogGrowth)
		if i >= len(h.counts) {
			i = len(h.counts) - 1
		}
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 when empty). It finds the
// bucket holding the ceil(q·n)-th smallest sample and places the answer
// inside it by the sample's rank among the bucket's own, so the result is
// within one bucket width (1 %) of the true value and does not snap to a
// grid.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			within := (float64(rank-seen) - 0.5) / float64(c)
			return histMinNs * math.Pow(histGrowth, float64(i)+within)
		}
		seen += c
	}
	return histMaxNs
}
