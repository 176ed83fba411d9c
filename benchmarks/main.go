// Command benchmarks is the repository's end-to-end benchmark: five named
// workloads over the public functions of the sweep engine and the serving
// stack, each checked against an in-process oracle. See README.md.
//
// One run of a workload is three fresh-process repetitions; times are
// reported as the best of the three and sizes as their median, with median
// and range printed beside every value. The last line of standard output is
// one JSON object with the run's result.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"

	"mlaasbench/internal/perf"
)

const (
	repetitions = 3
	// defaultSeconds is one run's measured time, split evenly over its
	// repetitions; BENCHMARK.json's run_seconds.
	defaultSeconds = 12
	workDir        = ".bench_build/tmp"
	traceDir       = "benchmarks/out"
)

func main() {
	var (
		workload    = flag.String("workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames))
		seed        = flag.Uint64("seed", 1, "picks the data, the models' training seeds and every client's op sequence")
		seconds     = flag.Float64("seconds", defaultSeconds, "measured time of one run, split over its repetitions")
		trace       = flag.Int("trace", 0, "1 = traced run: one repetition, one client, prints the per-layer metrics and writes "+traceDir+"/<workload>.trace.jsonl")
		checkRepeat = flag.Bool("check-repeat", false, "run every workload twice back to back and check that the two sets agree within the bounds")
		corrupt     = flag.Int("corrupt-oracle", 0, "1 = flip one expected answer; the run must then report a failed op and exit non-zero")
		describe    = flag.Bool("describe", false, "print BENCHMARK.json and exit")
		rep         = flag.Bool("rep", false, "internal: run one repetition in this process and print its result")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *describe {
		b, err := benchmarkJSON(defaultSeconds)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	window := time.Duration(*seconds / repetitions * float64(time.Second))
	if *rep {
		if err := os.MkdirAll(workDir, 0o755); err != nil {
			fatal(err)
		}
		res, err := runRep(ctx, repOptions{Workload: *workload, Seed: *seed, Window: window,
			Traced: *trace == 1, Corrupt: *corrupt == 1, OutDir: traceDir, WorkDir: workDir})
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	names := workloadNames
	if *workload != "all" {
		if _, ok := workloadWhy[*workload]; !ok {
			fatal(fmt.Errorf("unknown workload %q; have %v", *workload, workloadNames))
		}
		names = []string{*workload}
	}
	d := driver{ctx: ctx, seed: *seed, seconds: *seconds, trace: *trace, corrupt: *corrupt}
	printEnv()

	if *checkRepeat {
		a, err := d.collect(workloadNames)
		if err != nil {
			fatal(err)
		}
		b, err := d.collect(workloadNames)
		if err != nil {
			fatal(err)
		}
		if !printAgreement(os.Stdout, compareSets(a, b)) {
			os.Exit(1)
		}
		return
	}

	sums, err := d.collect(names)
	if err != nil {
		fatal(err)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	var failed int64
	var last []byte
	for _, w := range names {
		s := sums[w]
		s.print(os.Stdout, defs)
		failed += s.Failed
		if last, err = s.contractLine(defs); err != nil {
			fatal(err)
		}
	}
	if len(names) == 1 {
		fmt.Printf("%s\n", last)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmarks: %d op(s) differed from the oracle\n", failed)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmarks:", err)
	os.Exit(2)
}

// printEnv prints the fingerprint a number is only comparable under.
func printEnv() {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	limit := debug.SetMemoryLimit(-1)
	fmt.Printf("env: %s gogc=%s gomemlimit=%d clients=%d (closed loop) repetitions=%d\n",
		perf.CurrentEnv(), gogc, limit, clients(), repetitions)
}

// driver runs repetitions as fresh processes of this same binary.
type driver struct {
	ctx     context.Context
	seed    uint64
	seconds float64
	trace   int
	corrupt int
}

// collect runs every named workload's repetitions, interleaved — w1 r1, w2
// r1, …, w1 r2, … — so slow drift of the machine lands on all workloads
// alike, and returns one summary per workload. A traced run is a single
// repetition.
func (d driver) collect(names []string) (map[string]summary, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	n := repetitions
	if d.trace == 1 {
		n = 1
	}
	reps := map[string][]repResult{}
	for r := 0; r < n; r++ {
		for _, w := range names {
			res, err := d.runChild(exe, w)
			if err != nil {
				return nil, fmt.Errorf("%s repetition %d: %w", w, r+1, err)
			}
			reps[w] = append(reps[w], res)
		}
	}
	out := map[string]summary{}
	for _, w := range names {
		out[w] = summarize(w, reps[w])
	}
	return out, nil
}

func (d driver) runChild(exe, workload string) (repResult, error) {
	cmd := exec.CommandContext(d.ctx, exe, "-rep",
		"-workload", workload,
		"-seed", strconv.FormatUint(d.seed, 10),
		"-seconds", strconv.FormatFloat(d.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(d.trace),
		"-corrupt-oracle", strconv.Itoa(d.corrupt))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return repResult{}, err
	}
	var res repResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), &res); err != nil {
		return res, fmt.Errorf("decode repetition result: %w", err)
	}
	return res, nil
}
