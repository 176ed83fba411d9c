package core

import (
	"compress/gzip"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"

	"mlaasbench/internal/platforms"
)

// Sweep persistence: a full-corpus sweep takes minutes, so mlaas-bench and
// downstream analyses can cache the raw measurements (gzipped JSON) and
// re-run only the analysis layer. The cache embeds the options that
// produced it; Load refuses a cache whose options disagree with what the
// caller asked for, so stale caches cannot silently corrupt results.

// sweepFile is the on-disk representation.
type sweepFile struct {
	Version   int                                 `json:"version"`
	Profile   string                              `json:"profile"`
	Seed      uint64                              `json:"seed"`
	MaxData   int                                 `json:"max_datasets"`
	Platforms []string                            `json:"platforms"`
	StorePred bool                                `json:"store_predictions"`
	Datasets  []DatasetInfo                       `json:"datasets"`
	Measures  map[string]map[string][]Measurement `json:"measurements"`
}

// Version 2 records the platform list and StorePredictions.
const sweepFileVersion = 2

// sweepPlatforms is the sorted platform list opts asks for (nil = all
// seven): the order a sweep is asked in does not change what it measures.
func sweepPlatforms(opts Options) []string {
	names := opts.Platforms
	if len(names) == 0 {
		names = platforms.Names()
	}
	names = slices.Clone(names)
	slices.Sort(names)
	return names
}

// Save writes the sweep's measurements as gzipped JSON.
func (s *Sweep) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: create cache: %w", err)
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	file := sweepFile{
		Version:   sweepFileVersion,
		Profile:   s.Opts.Profile.Name,
		Seed:      s.Opts.Seed,
		MaxData:   s.Opts.MaxDatasets,
		Platforms: sweepPlatforms(s.Opts),
		StorePred: s.Opts.StorePredictions,
		Datasets:  s.Datasets,
		Measures:  s.ByPlatform,
	}
	if err := enc.Encode(file); err != nil {
		return fmt.Errorf("core: encode cache: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("core: flush cache: %w", err)
	}
	return f.Close()
}

// LoadSweep reads a cached sweep. The options must match the cache's
// recorded profile, seed, dataset limit, platforms and StorePredictions
// exactly; a mismatch returns an error rather than mixing incompatible
// measurements.
func LoadSweep(path string, opts Options) (*Sweep, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: open cache: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("core: cache is not gzip: %w", err)
	}
	defer zr.Close()
	var file sweepFile
	if err := json.NewDecoder(zr).Decode(&file); err != nil {
		return nil, fmt.Errorf("core: decode cache: %w", err)
	}
	if file.Version != sweepFileVersion {
		return nil, fmt.Errorf("core: cache version %d, want %d", file.Version, sweepFileVersion)
	}
	opts = withDefaults(opts)
	plats := sweepPlatforms(opts)
	if file.Profile != opts.Profile.Name || file.Seed != opts.Seed || file.MaxData != opts.MaxDatasets ||
		!slices.Equal(file.Platforms, plats) || file.StorePred != opts.StorePredictions {
		return nil, fmt.Errorf("core: cache was built with profile=%s seed=%d datasets=%d platforms=%v predictions=%t, "+
			"asked for profile=%s seed=%d datasets=%d platforms=%v predictions=%t",
			file.Profile, file.Seed, file.MaxData, file.Platforms, file.StorePred,
			opts.Profile.Name, opts.Seed, opts.MaxDatasets, plats, opts.StorePredictions)
	}
	return &Sweep{
		Opts:       opts,
		Datasets:   file.Datasets,
		ByPlatform: file.Measures,
	}, nil
}

// LoadOrRunSweep returns the cached sweep when path exists and matches
// opts; otherwise it runs the sweep and (when path is non-empty) caches it.
// With endpoints the sweep runs on that fleet (RunSweepFleet), else in
// process; the two are byte-identical, so one cache serves both.
func LoadOrRunSweep(ctx context.Context, path string, opts Options, endpoints ...string) (*Sweep, error) {
	if path != "" {
		if _, err := os.Stat(path); err == nil {
			sw, err := LoadSweep(path, opts)
			if err == nil {
				return sw, nil
			}
			// A mismatched or corrupt cache is reported, not silently
			// rebuilt over: the caller chose the path deliberately.
			return nil, err
		}
	}
	run := RunSweep
	if len(endpoints) > 0 {
		run = func(ctx context.Context, opts Options) (*Sweep, error) { return RunSweepFleet(ctx, opts, endpoints) }
	}
	sw, err := run(ctx, opts)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := sw.Save(path); err != nil {
			return nil, err
		}
	}
	return sw, nil
}

// WriteMeasurementsCSV exports every measurement as flat CSV for external
// plotting: platform, dataset, config id, baseline flag and the four
// metrics.
func (s *Sweep) WriteMeasurementsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"platform", "dataset", "config", "baseline", "f1", "accuracy", "precision", "recall"}); err != nil {
		return err
	}
	for _, p := range s.Platforms() {
		for _, ds := range s.DatasetNames() {
			for _, m := range s.ByPlatform[p][ds] {
				rec := []string{
					p, ds, m.Config.String(), strconv.FormatBool(m.Baseline),
					formatF(m.Scores.F1), formatF(m.Scores.Accuracy),
					formatF(m.Scores.Precision), formatF(m.Scores.Recall),
				}
				if err := cw.Write(rec); err != nil {
					return err
				}
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
