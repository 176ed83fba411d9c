package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSweepSaveLoadRoundTrip(t *testing.T) {
	sw := testSweep(t)
	path := filepath.Join(t.TempDir(), "sweep.json.gz")
	if err := sw.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSweep(path, sw.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Datasets) != len(sw.Datasets) {
		t.Fatalf("loaded %d datasets, want %d", len(loaded.Datasets), len(sw.Datasets))
	}
	// The analyses must agree between original and loaded sweeps.
	origRows := sw.Fig4()
	loadRows := loaded.Fig4()
	for i := range origRows {
		if origRows[i] != loadRows[i] {
			t.Fatalf("Fig4 differs after round trip: %+v vs %+v", origRows[i], loadRows[i])
		}
	}
	// Inference needs predictions — they must survive serialization.
	for _, p := range loaded.Platforms() {
		for _, ds := range loaded.DatasetNames() {
			for _, m := range loaded.ByPlatform[p][ds] {
				if len(m.Pred) == 0 {
					t.Fatalf("%s/%s: predictions lost in round trip", p, ds)
				}
			}
		}
	}
}

func TestLoadSweepRejectsMismatchedOptions(t *testing.T) {
	sw := testSweep(t)
	path := filepath.Join(t.TempDir(), "sweep.json.gz")
	if err := sw.Save(path); err != nil {
		t.Fatal(err)
	}
	opts := sw.Opts
	opts.Seed = 999
	if _, err := LoadSweep(path, opts); err == nil {
		t.Fatal("mismatched seed must be rejected")
	}
	opts = sw.Opts
	opts.MaxDatasets = 3
	if _, err := LoadSweep(path, opts); err == nil {
		t.Fatal("mismatched dataset limit must be rejected")
	}
	// The cache holds all seven platforms: a one-platform request is not
	// what it measured, and neither is any other subset.
	opts = sw.Opts
	opts.Platforms = []string{"google"}
	if _, err := LoadSweep(path, opts); err == nil {
		t.Fatal("mismatched platform list must be rejected")
	}
	// The cache holds predictions; a request without them differs too.
	opts = sw.Opts
	opts.StorePredictions = false
	if _, err := LoadSweep(path, opts); err == nil {
		t.Fatal("mismatched StorePredictions must be rejected")
	}
	// The reverse of both: a google-only cache without predictions must
	// not stand in for a seven-platform sweep that keeps them.
	small := &Sweep{
		Opts:       Options{Profile: sw.Opts.Profile, Seed: sw.Opts.Seed, MaxDatasets: sw.Opts.MaxDatasets, Platforms: []string{"google"}},
		ByPlatform: map[string]map[string][]Measurement{"google": {}},
	}
	if err := small.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSweep(path, sw.Opts); err == nil {
		t.Fatal("google-only cache without predictions loaded for a full request")
	}
	if err := sw.Save(path); err != nil {
		t.Fatal(err)
	}
	// The order a platform list is asked in does not matter.
	opts = sw.Opts
	opts.Platforms = []string{"abm", "google", "amazon", "bigml", "predictionio", "microsoft", "local"}
	if _, err := LoadSweep(path, opts); err != nil {
		t.Fatalf("same platforms in another order rejected: %v", err)
	}
}

func TestLoadSweepRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := writeFile(path, []byte("not gzip")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSweep(path, DefaultOptions()); err == nil {
		t.Fatal("garbage cache must be rejected")
	}
	if _, err := LoadSweep(filepath.Join(t.TempDir(), "absent"), DefaultOptions()); err == nil {
		t.Fatal("absent cache must be rejected")
	}
}

func TestLoadOrRunSweepUsesCache(t *testing.T) {
	sw := testSweep(t)
	path := filepath.Join(t.TempDir(), "sweep.json.gz")
	if err := sw.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadOrRunSweep(context.Background(), path, sw.Opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Datasets) != len(sw.Datasets) {
		t.Fatal("cache not used")
	}
	// A mismatch must be surfaced as an error, not silently recomputed.
	bad := sw.Opts
	bad.Seed = 123
	if _, err := LoadOrRunSweep(context.Background(), path, bad); err == nil {
		t.Fatal("mismatched cache must be an error")
	}
}

func TestWriteMeasurementsCSV(t *testing.T) {
	sw := testSweep(t)
	var buf bytes.Buffer
	if err := sw.WriteMeasurementsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := 1 // header
	for _, p := range sw.Platforms() {
		want += sw.ConfigCount(p) * len(sw.Datasets)
	}
	if len(lines) != want {
		t.Fatalf("%d CSV lines, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "platform,dataset,config,baseline,f1") {
		t.Fatalf("header %q", lines[0])
	}
}

func TestTimeCostRecorded(t *testing.T) {
	sw := testSweep(t)
	rows := sw.TimeCost()
	if len(rows) != 7 {
		t.Fatalf("%d time rows", len(rows))
	}
	for _, r := range rows {
		if r.Measurements == 0 {
			t.Fatalf("%s: no measurements", r.Platform)
		}
		if r.MedianMicros <= 0 {
			t.Fatalf("%s: median %v µs — timings not recorded", r.Platform, r.MedianMicros)
		}
		if r.P90Micros < r.MedianMicros {
			t.Fatalf("%s: p90 %v below median %v", r.Platform, r.P90Micros, r.MedianMicros)
		}
	}
}

func TestClassifierFrontier(t *testing.T) {
	sw := testSweep(t)
	frontier := sw.ClassifierFrontier()
	if len(frontier) != 10 {
		t.Fatalf("%d frontier points, want 10 local classifiers", len(frontier))
	}
	for i, c := range frontier {
		if c.MeanF1 <= 0 || c.MeanF1 > 1 {
			t.Fatalf("%s: mean F1 %v", c.Classifier, c.MeanF1)
		}
		if i > 0 && c.MedianMicros < frontier[i-1].MedianMicros {
			t.Fatal("frontier not sorted by cost")
		}
	}
	var buf bytes.Buffer
	sw.WriteTimeCost(&buf)
	if !strings.Contains(buf.String(), "frontier") {
		t.Fatal("time-cost report malformed")
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
