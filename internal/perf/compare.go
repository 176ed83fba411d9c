package perf

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// CompareOptions tune regression detection.
type CompareOptions struct {
	// Threshold is the minimum relative change-for-the-worse that counts
	// as a regression (0.10 = 10%).
	Threshold float64
	// NoiseMult widens the floor for noisy series: a change must also
	// exceed NoiseMult × max(old CV, new CV) before it is believed. With
	// the CV gate keeping CVs small this rarely dominates; for series
	// flagged HighVariance it is what keeps false alarms down.
	NoiseMult float64
}

// DefaultCompareOptions: 10% threshold, 2× the observed CV as noise floor.
func DefaultCompareOptions() CompareOptions {
	return CompareOptions{Threshold: 0.10, NoiseMult: 2.0}
}

// Delta is one (name, unit) series diffed across two records.
type Delta struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	OldMean float64 `json:"old_mean"`
	NewMean float64 `json:"new_mean"`
	// Pct is the relative change (new-old)/old; sign follows the raw
	// values, not better/worse.
	Pct            float64 `json:"pct"`
	OldCV          float64 `json:"old_cv"`
	NewCV          float64 `json:"new_cv"`
	HigherIsBetter bool    `json:"higher_is_better,omitempty"`
	// Floor is the effective significance bar this delta was judged
	// against: max(Threshold, NoiseMult×max CV).
	Floor       float64 `json:"floor"`
	Regression  bool    `json:"regression,omitempty"`
	Improvement bool    `json:"improvement,omitempty"`
	// NotComparable names the two -benchtime values ("1x vs 300ms", new
	// first) when the records were measured at different ones: such a
	// delta is shown but never judged, since a single cold iteration and a
	// warmed 300ms run measure different things.
	NotComparable string `json:"not_comparable,omitempty"`
}

// Comparison is the full diff of two records.
type Comparison struct {
	OldLabel string  `json:"old_label"`
	NewLabel string  `json:"new_label"`
	EnvMatch bool    `json:"env_match"`
	Deltas   []Delta `json:"deltas"`
	// OnlyOld / OnlyNew name series present in exactly one record
	// (rendered informationally, never judged).
	OnlyOld     []string `json:"only_old,omitempty"`
	OnlyNew     []string `json:"only_new,omitempty"`
	Regressions int      `json:"regressions"`
	// NotComparable counts the deltas left unjudged for a -benchtime
	// mismatch.
	NotComparable int `json:"not_comparable,omitempty"`
}

// Compare diffs every series the two records share. It never errors on
// partial overlap — history entries legitimately cover different suites —
// but returns an error when nothing overlaps at all, since that compare
// would vacuously "pass".
func Compare(old, new *Record, opts CompareOptions) (*Comparison, error) {
	cmp := &Comparison{
		OldLabel: recLabel(old),
		NewLabel: recLabel(new),
		EnvMatch: old.Env.Same(new.Env),
	}
	notComparable := ""
	if ob, nb := benchtime(old), benchtime(new); ob != "" && nb != "" && ob != nb {
		notComparable = nb + " vs " + ob
	}
	seen := map[[2]string]bool{}
	for _, nr := range new.Results {
		or := old.Result(nr.Name, nr.Unit)
		if or == nil {
			cmp.OnlyNew = append(cmp.OnlyNew, nr.Name+" ("+nr.Unit+")")
			continue
		}
		seen[[2]string{nr.Name, nr.Unit}] = true
		d := judge(*or, nr, opts)
		if notComparable != "" {
			d.Regression, d.Improvement, d.NotComparable = false, false, notComparable
			cmp.NotComparable++
		}
		cmp.Deltas = append(cmp.Deltas, d)
	}
	for _, or := range old.Results {
		if !seen[[2]string{or.Name, or.Unit}] {
			cmp.OnlyOld = append(cmp.OnlyOld, or.Name+" ("+or.Unit+")")
		}
	}
	if len(cmp.Deltas) == 0 {
		return nil, fmt.Errorf("records %q and %q share no (name, unit) series; nothing to compare", cmp.OldLabel, cmp.NewLabel)
	}
	sort.Slice(cmp.Deltas, func(i, j int) bool {
		if cmp.Deltas[i].Name != cmp.Deltas[j].Name {
			return cmp.Deltas[i].Name < cmp.Deltas[j].Name
		}
		return cmp.Deltas[i].Unit < cmp.Deltas[j].Unit
	})
	for _, d := range cmp.Deltas {
		if d.Regression {
			cmp.Regressions++
		}
	}
	return cmp, nil
}

func judge(old, new Result, opts CompareOptions) Delta {
	d := Delta{
		Name: new.Name, Unit: new.Unit,
		OldMean: old.Mean, NewMean: new.Mean,
		OldCV: old.CV, NewCV: new.CV,
		HigherIsBetter: new.HigherIsBetter,
	}
	if old.Mean != 0 {
		d.Pct = (new.Mean - old.Mean) / old.Mean
	}
	maxCV := old.CV
	if new.CV > maxCV {
		maxCV = new.CV
	}
	d.Floor = opts.Threshold
	if noise := opts.NoiseMult * maxCV; noise > d.Floor {
		d.Floor = noise
	}
	worse := d.Pct
	if d.HigherIsBetter {
		worse = -d.Pct
	}
	switch {
	case worse > d.Floor:
		d.Regression = true
	case -worse > d.Floor:
		d.Improvement = true
	}
	return d
}

// benchtime returns the -benchtime a record's Source names, or "" when it
// names none (loadgen records, hand-made ones).
func benchtime(rec *Record) string {
	f := strings.Fields(rec.Source)
	for i := 0; i+1 < len(f); i++ {
		if f[i] == "-benchtime" {
			return f[i+1]
		}
	}
	return ""
}

func recLabel(rec *Record) string {
	if rec.Label != "" {
		return rec.Label
	}
	return rec.Time.UTC().Format("20060102T150405Z")
}

// WriteComparison renders the diff as a text table: one row per shared
// series, flagged ! for regressions and + for improvements.
func WriteComparison(w io.Writer, cmp *Comparison) {
	fmt.Fprintf(w, "compare: %s -> %s\n", cmp.OldLabel, cmp.NewLabel)
	if !cmp.EnvMatch {
		fmt.Fprintf(w, "  note: environment fingerprints differ; deltas may reflect the machine, not the code\n")
	}
	fmt.Fprintf(w, "  %-34s %-12s %14s %14s %9s %8s  %s\n",
		"series", "unit", "old", "new", "delta", "floor", "verdict")
	for _, d := range cmp.Deltas {
		verdict := "ok"
		switch {
		case d.Regression:
			verdict = "! REGRESSION"
		case d.Improvement:
			verdict = "+ improved"
		case d.NotComparable != "":
			verdict = "not comparable (" + d.NotComparable + ")"
		}
		fmt.Fprintf(w, "  %-34s %-12s %14s %14s %+8.1f%% %7.1f%%  %s\n",
			d.Name, d.Unit, formatValue(d.OldMean, d.Unit), formatValue(d.NewMean, d.Unit),
			d.Pct*100, d.Floor*100, verdict)
	}
	for _, s := range cmp.OnlyNew {
		fmt.Fprintf(w, "  new series (no baseline): %s\n", s)
	}
	for _, s := range cmp.OnlyOld {
		fmt.Fprintf(w, "  series gone from latest: %s\n", s)
	}
}

// formatValue renders a value with a human scale for duration units.
func formatValue(v float64, unit string) string {
	if unit == "ns/op" {
		switch {
		case v >= 1e9:
			return fmt.Sprintf("%.2fs", v/1e9)
		case v >= 1e6:
			return fmt.Sprintf("%.2fms", v/1e6)
		case v >= 1e3:
			return fmt.Sprintf("%.1fµs", v/1e3)
		}
		return fmt.Sprintf("%.0fns", v)
	}
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	}
	return fmt.Sprintf("%.3f", v)
}
