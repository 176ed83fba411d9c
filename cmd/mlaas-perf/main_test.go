package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mlaasbench/internal/perf"
)

func writeRec(t *testing.T, dir, label string, at time.Time, mean float64) {
	t.Helper()
	res := perf.Result{Name: "BenchmarkGEMM", Unit: "ns/op",
		Runs: []float64{mean * 0.99, mean, mean * 1.01}}
	res.Finalize()
	rec := &perf.Record{
		Schema: perf.SchemaVersion, Kind: perf.KindBench, Label: label,
		Time: at, Results: []perf.Result{res},
	}
	if _, err := rec.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
}

// TestCompareSelfTest is the acceptance self-test: against the same
// history, a doctored (synthetically regressed) latest entry must exit
// non-zero while an unchanged run passes, a 2x win passes reported as an
// improvement, and -report-only must swallow the failure for CI smoke.
func TestCompareSelfTest(t *testing.T) {
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)

	t.Run("unchanged run passes", func(t *testing.T) {
		dir := t.TempDir()
		writeRec(t, dir, "old", base, 1000)
		writeRec(t, dir, "new", base.Add(time.Hour), 1004)
		var out, errb strings.Builder
		if code := run([]string{"compare", "-dir", dir}, &out, &errb); code != exitOK {
			t.Fatalf("exit %d, want 0\n%s%s", code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "no regressions") {
			t.Errorf("output: %s", out.String())
		}
	})

	t.Run("injected regression fails", func(t *testing.T) {
		dir := t.TempDir()
		writeRec(t, dir, "old", base, 1000)
		writeRec(t, dir, "doctored", base.Add(time.Hour), 1500) // +50%
		var out, errb strings.Builder
		if code := run([]string{"compare", "-dir", dir}, &out, &errb); code != exitRegression {
			t.Fatalf("exit %d, want %d\n%s%s", code, exitRegression, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "REGRESSION") {
			t.Errorf("output: %s", out.String())
		}
	})

	t.Run("report-only never fails", func(t *testing.T) {
		dir := t.TempDir()
		writeRec(t, dir, "old", base, 1000)
		writeRec(t, dir, "doctored", base.Add(time.Hour), 1500)
		var out, errb strings.Builder
		if code := run([]string{"compare", "-dir", dir, "-report-only"}, &out, &errb); code != exitOK {
			t.Fatalf("exit %d, want 0\n%s%s", code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "report-only") {
			t.Errorf("output: %s", out.String())
		}
	})

	t.Run("candidate against latest history", func(t *testing.T) {
		dir := t.TempDir()
		writeRec(t, dir, "committed", base, 1000)
		candDir := t.TempDir()
		writeRec(t, candDir, "cand", base.Add(time.Hour), 1800)
		var cand string
		entries, err := os.ReadDir(candDir)
		if err != nil || len(entries) != 1 {
			t.Fatal("candidate fixture")
		}
		cand = filepath.Join(candDir, entries[0].Name())
		var out, errb strings.Builder
		if code := run([]string{"compare", "-dir", dir, "-candidate", cand}, &out, &errb); code != exitRegression {
			t.Fatalf("exit %d, want %d\n%s%s", code, exitRegression, out.String(), errb.String())
		}
	})

	t.Run("improvement passes and is reported", func(t *testing.T) {
		dir := t.TempDir()
		writeRec(t, dir, "old", base, 1000)
		writeRec(t, dir, "faster", base.Add(time.Hour), 500) // 2x win
		var out, errb strings.Builder
		if code := run([]string{"compare", "-dir", dir}, &out, &errb); code != exitOK {
			t.Fatalf("exit %d, want 0\n%s%s", code, out.String(), errb.String())
		}
		if !strings.Contains(out.String(), "improved") {
			t.Errorf("2x win not reported as improvement:\n%s", out.String())
		}
	})

	t.Run("too little history errors", func(t *testing.T) {
		dir := t.TempDir()
		writeRec(t, dir, "only", base, 1000)
		var out, errb strings.Builder
		if code := run([]string{"compare", "-dir", dir}, &out, &errb); code != exitErr {
			t.Fatalf("exit %d, want %d", code, exitErr)
		}
	})
}

func TestReportRendersCommittedHistoryShape(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	writeRec(t, dir, "seed", base, 32.5e9)
	writeRec(t, dir, "pr2", base.Add(time.Hour), 16.7e9)
	var out, errb strings.Builder
	if code := run([]string{"report", "-dir", dir}, &out, &errb); code != exitOK {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"BenchmarkGEMM", "seed", "pr2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if code := run([]string{"report", "-dir", dir, "-format", "json"}, &out, &errb); code != exitOK {
		t.Fatalf("json exit %d: %s", code, errb.String())
	}
	var trs []perf.Trajectory
	if err := json.Unmarshal([]byte(out.String()), &trs); err != nil || len(trs) != 1 {
		t.Fatalf("json report: %v (%d trajectories)", err, len(trs))
	}
	if len(trs[0].Points) != 2 {
		t.Errorf("trajectory points %d, want 2", len(trs[0].Points))
	}
}

func TestUnknownSubcommand(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"bogus"}, &out, &errb); code != exitErr {
		t.Fatalf("exit %d, want %d", code, exitErr)
	}
	if code := run(nil, &out, &errb); code != exitErr {
		t.Fatalf("no-args exit %d, want %d", code, exitErr)
	}
}
