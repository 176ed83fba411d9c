// Command mlaas-perf is the continuous performance observability harness:
// it collects variance-gated benchmark runs, appends them to the tracked
// history under perf/results/, detects regressions against the previous
// entry, and renders the performance trajectory.
//
// Usage:
//
//	mlaas-perf run     [-pkgs ...] [-bench regex] [-count 5] [-benchtime 300ms]
//	                   [-cv-gate 0.05] [-max-reruns 3] [-benchmem]
//	                   [-label name] [-dir perf/results] [-out file] [-no-save]
//	mlaas-perf compare [-dir perf/results] [-kind bench] [-candidate file]
//	                   [-threshold 0.10] [-noise-mult 2] [-report-only]
//	mlaas-perf report  [-dir perf/results] [-kind ""] [-format text|json|benchfmt]
//	                   [-record file]
//
// run executes the selected benchmark suite -count times (each round its
// own `go test -bench` subprocess, so rounds are independent samples),
// computes per-benchmark mean and coefficient of variation, and reruns —
// alone — any benchmark whose CV exceeds -cv-gate, for up to -max-reruns
// extra rounds. The finished record lands in -dir under a
// time-sortable filename, stamped with the machine/env fingerprint
// (go version, GOOS/GOARCH, NumCPU, GOMAXPROCS, git SHA, CPU model).
//
// compare diffs the latest history entry of a kind against the previous
// one (or -candidate against the latest committed entry) and exits with
// code 2 when any shared series regressed beyond the threshold — unless
// -report-only, which always exits 0 and is what CI smoke uses.
//
// report renders every series' trajectory across the whole history;
// -format benchfmt re-emits one record in the Go benchmark data format
// for benchstat.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mlaasbench/internal/perf"
)

// Default suite: the committed kernel benchmarks. Fast enough to run
// -count 5 in minutes; the 16s/op sweep benchmarks are opt-in via -bench.
const (
	defaultBench = "BenchmarkGEMM$|MLPForwardBatch|KNNPredictBatch|WireCodec|DatasetLoad|ModelDecodeMLMF|RequestTelemetry|MetricLookup|TreeFit"
	defaultPkgs  = "./internal/linalg,./internal/classifiers,./internal/wire,./internal/store,./internal/telemetry"
)

// Exit codes: 0 clean, 1 usage or I/O error, 2 regression detected.
const (
	exitOK         = 0
	exitErr        = 1
	exitRegression = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: mlaas-perf run|compare|report [flags]")
		return exitErr
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "report":
		return cmdReport(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "mlaas-perf: unknown subcommand %q (want run, compare or report)\n", args[0])
		return exitErr
	}
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	pkgs := fs.String("pkgs", defaultPkgs, "comma-separated package patterns for go test")
	bench := fs.String("bench", defaultBench, "benchmark selection regex (-bench)")
	benchtime := fs.String("benchtime", "300ms", "per-benchmark -benchtime (e.g. 1s, 1x)")
	count := fs.Int("count", 5, "full-suite rounds (samples per benchmark)")
	cvGate := fs.Float64("cv-gate", 0.05, "coefficient-of-variation gate; noisier benchmarks rerun alone (0 disables)")
	maxReruns := fs.Int("max-reruns", 3, "extra rounds the CV gate may spend per noisy benchmark")
	benchmem := fs.Bool("benchmem", false, "collect B/op and allocs/op too")
	label := fs.String("label", "run", "short record label (shows in compare and report)")
	dir := fs.String("dir", "perf/results", "history directory the record is appended to")
	out := fs.String("out", "", "also write the record here (a path, or - for stdout)")
	noSave := fs.Bool("no-save", false, "do not append to the history directory (use with -out)")
	if err := fs.Parse(args); err != nil {
		return exitErr
	}
	runner := &perf.Runner{Logf: func(format string, a ...any) {
		fmt.Fprintf(stderr, "mlaas-perf: "+format+"\n", a...)
	}}
	rec, err := runner.Run(perf.RunConfig{
		Pkgs:      strings.Split(*pkgs, ","),
		Bench:     *bench,
		Benchtime: *benchtime,
		Count:     *count,
		Benchmem:  *benchmem,
		CVGate:    *cvGate,
		MaxReruns: *maxReruns,
		Label:     *label,
	})
	if err != nil {
		fmt.Fprintf(stderr, "mlaas-perf: run: %v\n", err)
		return exitErr
	}
	fmt.Fprintf(stdout, "collected %d series over %d rounds (env: %s)\n", len(rec.Results), *count, rec.Env)
	for _, res := range rec.Results {
		if res.Unit != "ns/op" {
			continue
		}
		flags := ""
		if res.Reruns > 0 {
			flags = fmt.Sprintf(" (+%d cv-gate reruns)", res.Reruns)
		}
		if res.HighVariance {
			flags += " HIGH VARIANCE"
		}
		fmt.Fprintf(stdout, "  %-34s mean %12.0f ns/op  cv %4.1f%%%s\n", res.Name, res.Mean, res.CV*100, flags)
	}
	if !*noSave {
		path, err := rec.WriteFile(*dir)
		if err != nil {
			fmt.Fprintf(stderr, "mlaas-perf: save record: %v\n", err)
			return exitErr
		}
		fmt.Fprintf(stdout, "record appended to %s\n", path)
	}
	if *out != "" {
		if err := writeRecordTo(rec, *out, stdout); err != nil {
			fmt.Fprintf(stderr, "mlaas-perf: %v\n", err)
			return exitErr
		}
	}
	return exitOK
}

// writeRecordTo writes the record as JSON to an explicit path ("-" for
// stdout) — the -no-save -out pair CI smoke uses to produce a candidate
// record without touching the committed history.
func writeRecordTo(rec *perf.Record, out string, stdout io.Writer) error {
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if out == "-" {
		_, err = stdout.Write(blob)
		return err
	}
	return os.WriteFile(out, blob, 0o644)
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "perf/results", "history directory")
	kind := fs.String("kind", perf.KindBench, "record kind to compare (bench or loadgen)")
	candidate := fs.String("candidate", "", "compare this record file against the latest history entry instead of latest-vs-previous")
	threshold := fs.Float64("threshold", 0.10, "relative change-for-the-worse that counts as a regression")
	noiseMult := fs.Float64("noise-mult", 2.0, "noise floor multiplier over the observed CV")
	reportOnly := fs.Bool("report-only", false, "print the diff but always exit 0 (CI smoke mode)")
	if err := fs.Parse(args); err != nil {
		return exitErr
	}
	entries, err := perf.LoadHistory(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "mlaas-perf: %v\n", err)
		return exitErr
	}
	var old, latest *perf.Record
	if *candidate != "" {
		cand, err := perf.ReadRecord(*candidate)
		if err != nil {
			fmt.Fprintf(stderr, "mlaas-perf: %v\n", err)
			return exitErr
		}
		base, ok := perf.Baseline(entries, cand.Kind, cand)
		if !ok {
			fmt.Fprintf(stderr, "mlaas-perf: no %s record in %s shares a series with the candidate; nothing to compare\n", cand.Kind, *dir)
			return exitErr
		}
		old, latest = base.Record, cand
	} else {
		prev, last, ok := perf.LatestPair(entries, *kind)
		if !ok {
			fmt.Fprintf(stderr, "mlaas-perf: need at least two %s records in %s to compare\n", *kind, *dir)
			return exitErr
		}
		old, latest = prev.Record, last.Record
	}
	cmp, err := perf.Compare(old, latest, perf.CompareOptions{Threshold: *threshold, NoiseMult: *noiseMult})
	if err != nil {
		fmt.Fprintf(stderr, "mlaas-perf: %v\n", err)
		return exitErr
	}
	perf.WriteComparison(stdout, cmp)
	if cmp.Regressions > 0 {
		fmt.Fprintf(stdout, "%d regression(s) beyond the %.0f%% threshold\n", cmp.Regressions, *threshold*100)
		if *reportOnly {
			fmt.Fprintln(stdout, "(report-only mode: not failing)")
			return exitOK
		}
		return exitRegression
	}
	fmt.Fprintln(stdout, "no regressions")
	return exitOK
}

func cmdReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "perf/results", "history directory")
	kind := fs.String("kind", "", "restrict to one record kind (bench or loadgen); empty shows all")
	format := fs.String("format", "text", "output format: text, json or benchfmt")
	record := fs.String("record", "", "benchfmt only: render this record file (default: latest bench entry)")
	if err := fs.Parse(args); err != nil {
		return exitErr
	}
	entries, err := perf.LoadHistory(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "mlaas-perf: %v\n", err)
		return exitErr
	}
	entries = perf.FilterKind(entries, *kind)
	switch *format {
	case "text":
		perf.WriteReport(stdout, entries)
	case "json":
		if err := perf.WriteReportJSON(stdout, entries); err != nil {
			fmt.Fprintf(stderr, "mlaas-perf: %v\n", err)
			return exitErr
		}
	case "benchfmt":
		var rec *perf.Record
		if *record != "" {
			if rec, err = perf.ReadRecord(*record); err != nil {
				fmt.Fprintf(stderr, "mlaas-perf: %v\n", err)
				return exitErr
			}
		} else {
			bench := perf.FilterKind(entries, perf.KindBench)
			if len(bench) == 0 {
				fmt.Fprintf(stderr, "mlaas-perf: no bench records in %s\n", *dir)
				return exitErr
			}
			rec = bench[len(bench)-1].Record
		}
		perf.WriteBenchFormat(stdout, rec)
	default:
		fmt.Fprintf(stderr, "mlaas-perf: unknown -format %q\n", *format)
		return exitErr
	}
	return exitOK
}
