package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"mlaasbench/internal/stats"
)

// stat is one metric over a run's repetitions.
type stat struct{ Median, Min, Max float64 }

// summary is one run of a workload: every metric over its repetitions.
type summary struct {
	Workload  string
	Reps      int
	Attempted int64
	Failed    int64
	Stats     map[string]stat
}

func summarize(workload string, reps []repResult) summary {
	s := summary{Workload: workload, Reps: len(reps), Stats: map[string]stat{}}
	values := map[string][]float64{}
	for _, r := range reps {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for name, v := range r.Metrics {
			values[name] = append(values[name], v)
		}
	}
	for name, vs := range values {
		s.Stats[name] = stat{Median: stats.Quantile(vs, 0.5), Min: stats.Quantile(vs, 0), Max: stats.Quantile(vs, 1)}
	}
	return s
}

// print writes the run as a table: every metric by name with its unit, the
// reported value, the median and range of the repetitions, and the op counts.
func (s summary) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "%s: %d repetition(s), ops attempted %d, failed %d (%.4f%%)\n",
		s.Workload, s.Reps, s.Attempted, s.Failed, 100*float64(s.Failed)/float64(max(s.Attempted, 1)))
	for _, d := range defs {
		st := s.Stats[d.Name]
		fmt.Fprintf(w, "  %-44s %14.4f %-8s", d.Name, d.value(st), d.Unit)
		if s.Reps > 1 {
			fmt.Fprintf(w, " [median %.4f, min %.4f, max %.4f]", st.Median, st.Min, st.Max)
		}
		fmt.Fprintln(w)
	}
}

// contractLine is the benchmark's result: one JSON object, the last line of
// standard output.
func (s summary) contractLine(defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: s.Failed == 0, Attempted: s.Attempted, Failed: s.Failed, Metrics: map[string]value{}}
	for _, d := range defs {
		st, ok := s.Stats[d.Name]
		if !ok || math.IsNaN(st.Median) || math.IsInf(st.Median, 0) {
			return nil, fmt.Errorf("%s: metric %s was not measured", s.Workload, d.Name)
		}
		out.Metrics[d.Name] = value{d.value(st), d.Unit}
	}
	return json.Marshal(out)
}

// agreement compares two runs of the same code on one metric: how far the
// second reported value lies from the first, as a share of the first.
type agreement struct {
	Workload, Metric string
	A, B, Diff       float64
	Bound            float64
}

func (a agreement) ok() bool { return a.Diff <= a.Bound }

func compareSets(a, b map[string]summary) []agreement {
	var out []agreement
	for _, w := range workloadNames {
		for _, d := range endToEnd {
			va, vb := d.value(a[w].Stats[d.Name]), d.value(b[w].Stats[d.Name])
			out = append(out, agreement{Workload: w, Metric: d.Name, A: va, B: vb,
				Diff: math.Abs(vb-va) / va, Bound: d.Bound})
		}
	}
	return out
}

func printAgreement(w io.Writer, rows []agreement) (allOK bool) {
	allOK = true
	fmt.Fprintf(w, "| workload | metric | set A | set B | difference | bound | |\n|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		verdict := "ok"
		if !r.ok() {
			verdict, allOK = "DISAGREE", false
		}
		fmt.Fprintf(w, "| %s | %s | %.4f | %.4f | %.1f%% | %.0f%% | %s |\n",
			r.Workload, r.Metric, r.A, r.B, 100*r.Diff, 100*r.Bound, verdict)
	}
	return allOK
}

// benchmarkJSON renders BENCHMARK.json from the metric tables, so the file
// and the driver cannot name different metrics.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "benchmarks/run.sh"}, Paths: []string{"benchmarks"}, RunSeconds: runSeconds}
	for _, w := range workloadNames {
		doc.Workloads = append(doc.Workloads, workload{w, workloadWhy[w]})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}
