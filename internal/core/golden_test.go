package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/platforms"
	"mlaasbench/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestReportsGolden pins the rendered output of the shared 8-dataset sweep
// byte for byte: every deterministic (*Sweep).Write* report (WriteTimeCost
// is wall-clock and stays out), the §6.2 inference and Table-6 reports built
// on it, the AUC extension, and the §6.1 boundary probe of every platform
// on CIRCLE with its linearity score. A change that claims to keep the
// results identical must pass it unchanged; regenerate with
//
//	go test ./internal/core -run TestReportsGolden -update
//
// only when a change is meant to move the numbers.
func TestReportsGolden(t *testing.T) {
	sw := testSweep(t)
	opts := DefaultOptions()
	var b bytes.Buffer
	section := func(name string) { fmt.Fprintf(&b, "==== %s\n", name) }

	for _, r := range []struct {
		name  string
		write func()
	}{
		{"table2", func() { sw.WriteTable2(&b) }},
		{"fig4", func() { sw.WriteFig4(&b) }},
		{"table3", func() { sw.WriteTable3(&b) }},
		{"fig5", func() { sw.WriteFig5(&b) }},
		{"table4", func() { sw.WriteTable4(&b) }},
		{"fig6", func() { sw.WriteFig6(&b) }},
		{"fig7", func() { sw.WriteFig7(&b) }},
		{"fig8", func() { sw.WriteFig8(&b) }},
		{"fig11", func() {
			for _, ds := range sw.DatasetNames() {
				sw.WriteFamilyCDFs(&b, ds)
			}
		}},
		{"domains", func() { sw.WriteDomainBreakdown(&b) }},
		// Every measurement's scores, and test-set predictions, pinned by digest: the CSV alone is
		// ~8 000 rows, too bulky to keep in the golden verbatim.
		{"csv", func() {
			var csv bytes.Buffer
			if err := sw.WriteMeasurementsCSV(&csv); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "rows=%d sha256=%x\n", bytes.Count(csv.Bytes(), []byte("\n")), sha256.Sum256(csv.Bytes()))
			h := sha256.New()
			for _, p := range sw.Platforms() {
				for _, ds := range sw.DatasetNames() {
					for _, m := range sw.ByPlatform[p][ds] {
						h.Write(m.Pred)
					}
				}
			}
			fmt.Fprintf(&b, "predictions sha256=%x\n", h.Sum(nil))
		}},
	} {
		section(r.name)
		r.write()
	}

	rep, err := sw.InferFamilies(nil)
	if err != nil {
		t.Fatal(err)
	}
	section("infer")
	WriteInference(&b, rep)
	section("table6")
	for _, p := range []string{"google", "abm"} {
		cmp, err := sw.CompareNaive(p, rep)
		if err != nil {
			t.Fatal(err)
		}
		switchBest, err := sw.SwitchIsBestCount(p, rep)
		if err != nil {
			t.Fatal(err)
		}
		WriteNaive(&b, cmp, switchBest)
	}

	rows, err := AUCStudy(opts.Profile, opts.Seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	section("auc")
	WriteAUCStudy(&b, rows)
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s f1=%v auc=%v\n", r.Platform, r.AvgF1, r.AvgAUC)
	}

	circle, _ := ProbeDatasets(opts.Profile, opts.Seed)
	for _, p := range platforms.All() {
		cfg := pipeline.Config{}
		if bc := p.BaselineClassifier(); bc != "" {
			if cfg, err = p.Surface().DefaultConfig(bc); err != nil {
				t.Fatal(err)
			}
		}
		bm, err := ExtractBoundary(p, circle, cfg, 24, opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		section(fmt.Sprintf("boundary %s CIRCLE linearity=%v", p.Name(), bm.LinearityScore()))
		b.WriteString(bm.ASCII())
	}

	path := filepath.Join("testdata", "reports_8.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestFig3IsReproducible renders the corpus table repeatedly: domains with
// equal counts must come out in the same order every time (they once
// followed map iteration order).
func TestFig3IsReproducible(t *testing.T) {
	var first string
	for i := 0; i < 8; i++ {
		var b strings.Builder
		WriteFig3(&b, synth.Quick, synth.CorpusSeed)
		if i == 0 {
			first = b.String()
		} else if b.String() != first {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i, b.String(), first)
		}
	}
}
