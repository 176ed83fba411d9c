// Package perf is the continuous performance observability layer: it
// defines the run-record schema committed under perf/results/, parses Go
// benchmark output, runs the benchmark suite with variance gating
// (runner.go), diffs runs for regressions (compare.go), and renders the
// tracked trajectory (report.go).
//
// The paper's argument rests on trustworthy repeated measurement of the
// same workloads over time (§3.2); this package applies the same
// discipline to the reproduction itself. Every banked performance claim
// (the 2.0× sweep, 32.7× serving, 1.6× kernel wins) becomes one Record in
// an append-only history, each stamped with the machine/environment
// fingerprint it was measured on, so "measurably faster" is a diff against
// the previous history entry rather than a hand-rolled one-off file.
package perf

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mlaasbench/internal/telemetry"
)

// SchemaVersion identifies the record layout. Readers reject newer
// schemas rather than misinterpreting them.
const SchemaVersion = 1

// Record kinds. A "bench" record holds go test -bench results (ns/op and
// friends); a "loadgen" record holds closed-loop serving-path results
// (req/s, latency quantiles) in the same shape, so both trajectories live
// in one history. Loadgen records are history: the generator that wrote
// them is gone, and report and compare still read the committed ones.
const (
	KindBench   = "bench"
	KindLoadgen = "loadgen"
)

// Env is the machine/environment fingerprint stamped on every record.
// Comparing records from different fingerprints is allowed but the diff
// calls it out: a "regression" measured on different hardware is a
// different claim.
type Env struct {
	GoVersion  string `json:"go_version,omitempty"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GitSHA     string `json:"git_sha,omitempty"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Note       string `json:"note,omitempty"`
}

// String renders the fingerprint on one line (the bench summary and the
// report header use it).
func (e Env) String() string {
	parts := []string{}
	if e.GoVersion != "" {
		parts = append(parts, e.GoVersion)
	}
	if e.GOOS != "" || e.GOARCH != "" {
		parts = append(parts, e.GOOS+"/"+e.GOARCH)
	}
	parts = append(parts, fmt.Sprintf("gomaxprocs=%d", e.GOMAXPROCS), fmt.Sprintf("numcpu=%d", e.NumCPU))
	if e.GitSHA != "" {
		parts = append(parts, "sha="+shortSHA(e.GitSHA))
	}
	if e.CPUModel != "" {
		parts = append(parts, e.CPUModel)
	}
	return strings.Join(parts, " ")
}

// Same reports whether two fingerprints describe comparable measurement
// conditions (same toolchain, arch and CPU budget; git SHA is expected to
// differ between runs and is ignored).
func (e Env) Same(o Env) bool {
	return e.GoVersion == o.GoVersion && e.GOOS == o.GOOS && e.GOARCH == o.GOARCH &&
		e.NumCPU == o.NumCPU && e.GOMAXPROCS == o.GOMAXPROCS
}

func shortSHA(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// CurrentEnv fingerprints the running process: toolchain and CPU budget
// from the runtime, git SHA from the enclosing checkout (best-effort, via
// telemetry.Fingerprint's build info first, then `git rev-parse`), CPU
// model from /proc/cpuinfo where available.
func CurrentEnv() Env {
	fp := telemetry.Fingerprint()
	env := Env{
		GoVersion:  fp.GoVersion,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     fp.NumCPU,
		GOMAXPROCS: fp.GOMAXPROCS,
		GitSHA:     fp.GitSHA,
		CPUModel:   cpuModel(),
	}
	if env.GitSHA == "" {
		env.GitSHA = gitHead()
	}
	return env
}

// gitHead asks git for the current commit. Test binaries and `go run`
// builds carry no VCS stamp, so this is the path that usually fires.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the first "model name" line from /proc/cpuinfo; empty on
// platforms without one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, val, found := strings.Cut(name, ":"); found {
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// Result is one tracked metric series inside a record: a benchmark's
// ns/op, a loadgen pass's req/s, an allocation count. Identity for
// comparison across records is the (Name, Unit) pair.
type Result struct {
	Name string `json:"name"` // e.g. "BenchmarkGEMM", "loadgen/forward"
	Unit string `json:"unit"` // e.g. "ns/op", "req/s", "p95_ms"
	// Runs holds every kept sample, one per suite iteration (plus any
	// CV-gate reruns). Mean/CV are derived but stored so the history is
	// greppable without recomputation.
	Runs []float64 `json:"runs"`
	Mean float64   `json:"mean"`
	CV   float64   `json:"cv"` // stddev/mean, 0 when undefined
	// Reruns counts extra variance-gate rounds this benchmark needed;
	// HighVariance marks a series still above the gate when reruns ran out
	// (compare treats it with a wider noise floor).
	Reruns       int  `json:"reruns,omitempty"`
	HighVariance bool `json:"high_variance,omitempty"`
	// HigherIsBetter orients regression detection (req/s up is good,
	// ns/op up is bad). Derived from Unit at creation; stored so readers
	// never guess.
	HigherIsBetter bool `json:"higher_is_better,omitempty"`
}

// Finalize recomputes Mean and CV from Runs (call after appending
// samples).
func (r *Result) Finalize() {
	r.Mean, r.CV = MeanCV(r.Runs)
}

// MeanCV returns the sample mean and coefficient of variation
// (stddev/mean) of xs. CV is 0 for fewer than two samples or a zero mean.
func MeanCV(xs []float64) (mean, cv float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	if len(xs) < 2 || mean == 0 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(xs)-1))
	return mean, sd / mean
}

// HigherBetterUnit reports whether larger values of unit mean better
// performance. Throughput-shaped units are higher-better; durations,
// bytes and counts are lower-better.
func HigherBetterUnit(unit string) bool {
	switch unit {
	case "req/s", "ops/s", "instances/s", "rows/s":
		return true
	}
	return strings.HasSuffix(unit, "/s") && !strings.HasSuffix(unit, "s/op")
}

// Record is one history entry: a full benchmark-suite or loadgen run.
type Record struct {
	Schema int       `json:"schema"`
	Kind   string    `json:"kind"`  // KindBench or KindLoadgen
	Label  string    `json:"label"` // short human tag, e.g. "pr6", "smoke"
	Time   time.Time `json:"time"`
	Env    Env       `json:"env"`
	// Source notes provenance: the go test command line for live runs, or
	// the file a converted record came from.
	Source  string   `json:"source,omitempty"`
	Notes   string   `json:"notes,omitempty"`
	Results []Result `json:"results"`
}

// Result returns the record's series for (name, unit), or nil.
func (rec *Record) Result(name, unit string) *Result {
	for i := range rec.Results {
		if rec.Results[i].Name == name && rec.Results[i].Unit == unit {
			return &rec.Results[i]
		}
	}
	return nil
}

// Filename returns the canonical history filename for the record:
// <UTC time>-<kind>-<label>.json, which sorts lexically in time order.
func (rec *Record) Filename() string {
	label := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, rec.Label)
	if label == "" {
		label = "run"
	}
	return fmt.Sprintf("%s-%s-%s.json", rec.Time.UTC().Format("20060102T150405Z"), rec.Kind, label)
}

// WriteFile writes the record into dir under its canonical filename,
// creating dir if needed, and returns the full path.
func (rec *Record) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, rec.Filename())
	blob, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}

// ReadRecord loads and validates one record file.
func ReadRecord(path string) (*Record, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(blob, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rec.Schema > SchemaVersion {
		return nil, fmt.Errorf("%s: schema %d is newer than this binary understands (%d)", path, rec.Schema, SchemaVersion)
	}
	if rec.Kind == "" || len(rec.Results) == 0 {
		return nil, fmt.Errorf("%s: not a perf record (missing kind or results)", path)
	}
	return &rec, nil
}
