package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) {
	var lastFamily string
	r.walk(func(f *family, labels []string, metric any) {
		if f.name != lastFamily {
			lastFamily = f.name
			if help := f.help.Load(); help != nil && *help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", f.name, *help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.promType())
		}
		switch m := metric.(type) {
		case *Counter:
			fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(labels), m.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s%s %d\n", f.name, promLabels(labels), m.Value())
		case *Histogram:
			cum, count, sum := m.snapshotBuckets()
			for i, bound := range m.bounds {
				le := strconv.FormatFloat(bound, 'g', -1, 64)
				fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, promLabels(labels, "le", le), cum[i])
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, promLabels(labels, "le", "+Inf"), cum[len(cum)-1])
			fmt.Fprintf(w, "%s_sum%s %g\n", f.name, promLabels(labels), sum)
			fmt.Fprintf(w, "%s_count%s %d\n", f.name, promLabels(labels), count)
		}
	})
}

func (k kind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// promLabels renders {k="v",...}; extra pairs are appended after the series
// labels (used for the histogram le label). Empty label sets render as "".
func promLabels(pairs []string, extra ...string) string {
	all := append(append([]string(nil), pairs...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(all); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(all[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(all[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// SeriesValue is one counter or gauge sample in a Snapshot.
type SeriesValue struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`
}

// BucketValue is one cumulative histogram bucket in a Snapshot. Only
// finite bounds are listed; the +Inf total is the series Count.
type BucketValue struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramValue is one histogram series in a Snapshot, with interpolated
// quantiles precomputed for dashboards that don't want bucket math.
type HistogramValue struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	P50     float64           `json:"p50"`
	P95     float64           `json:"p95"`
	P99     float64           `json:"p99"`
	Buckets []BucketValue     `json:"buckets,omitempty"` // finite bounds only; Count is the +Inf total
}

// SnapshotData is the JSON shape served by GET /metrics.json.
type SnapshotData struct {
	Counters   []SeriesValue    `json:"counters,omitempty"`
	Gauges     []SeriesValue    `json:"gauges,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state as plain data.
func (r *Registry) Snapshot() SnapshotData {
	var snap SnapshotData
	r.walk(func(f *family, labels []string, metric any) {
		lm := labelMap(labels)
		switch m := metric.(type) {
		case *Counter:
			snap.Counters = append(snap.Counters, SeriesValue{Name: f.name, Labels: lm, Value: m.Value()})
		case *Gauge:
			snap.Gauges = append(snap.Gauges, SeriesValue{Name: f.name, Labels: lm, Value: m.Value()})
		case *Histogram:
			cum, count, sum := m.snapshotBuckets()
			hv := HistogramValue{
				Name: f.name, Labels: lm, Count: count, Sum: sum,
				P50: m.Quantile(0.50), P95: m.Quantile(0.95), P99: m.Quantile(0.99),
			}
			for i, bound := range m.bounds {
				hv.Buckets = append(hv.Buckets, BucketValue{LE: bound, Count: cum[i]})
			}
			snap.Histograms = append(snap.Histograms, hv)
		}
	})
	return snap
}

func labelMap(pairs []string) map[string]string {
	if len(pairs) == 0 {
		return nil
	}
	m := make(map[string]string, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		m[pairs[i]] = pairs[i+1]
	}
	return m
}

// WriteSummary renders a human-readable digest of the registry — the
// bench-end report: per-stage latency quantiles first, then every other
// histogram family, then counter totals and live gauges. Writes nothing
// when the registry is empty.
func WriteSummary(w io.Writer, r *Registry) {
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) == 0 {
		return
	}
	fmt.Fprintln(w, "telemetry summary")

	// Histograms, the stage family first.
	byFamily := map[string][]HistogramValue{}
	var famOrder []string
	for _, hv := range snap.Histograms {
		if _, ok := byFamily[hv.Name]; !ok {
			famOrder = append(famOrder, hv.Name)
		}
		byFamily[hv.Name] = append(byFamily[hv.Name], hv)
	}
	for i, name := range famOrder {
		if name == StageHistogram && i != 0 {
			famOrder[0], famOrder[i] = famOrder[i], famOrder[0]
		}
	}
	for _, name := range famOrder {
		fmt.Fprintf(w, "  %s\n", name)
		fmt.Fprintf(w, "    %-28s %10s %10s %10s %10s %10s\n",
			"series", "count", "p50(ms)", "p95(ms)", "p99(ms)", "total(s)")
		for _, hv := range byFamily[name] {
			fmt.Fprintf(w, "    %-28s %10d %10.3f %10.3f %10.3f %10.2f\n",
				seriesLabel(hv.Labels), hv.Count,
				hv.P50*1e3, hv.P95*1e3, hv.P99*1e3, hv.Sum)
		}
	}
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "  counters")
		for _, c := range snap.Counters {
			fmt.Fprintf(w, "    %-44s %12d\n", c.Name+seriesSuffix(c.Labels), c.Value)
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "  gauges")
		for _, g := range snap.Gauges {
			fmt.Fprintf(w, "    %-44s %12d\n", g.Name+seriesSuffix(g.Labels), g.Value)
		}
	}
}

// seriesLabel renders a label map compactly: a single label prints its
// value, multiple labels print k=v pairs.
func seriesLabel(labels map[string]string) string {
	switch len(labels) {
	case 0:
		return "(total)"
	case 1:
		for _, v := range labels {
			return v
		}
	}
	return strings.Trim(seriesSuffix(labels), "{}")
}

func seriesSuffix(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return "{" + strings.Join(parts, ",") + "}"
}
