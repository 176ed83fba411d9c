package core_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"mlaasbench/internal/core"
	"mlaasbench/internal/service"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
)

// fleetOpts is a small sweep that still crosses several datasets and both
// a white-box and a black-box platform, so the byte-identity check
// exercises config echo, hidden-auto configs and baseline marking.
func fleetOpts() core.Options {
	return core.Options{
		Profile:          synth.Quick,
		Seed:             synth.CorpusSeed,
		MaxDatasets:      4,
		Platforms:        []string{"local", "google"},
		StorePredictions: true,
		Workers:          2,
	}
}

// startReplicas boots n in-process replicas and returns their URLs.
func startReplicas(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		api := service.NewServer(func(string, ...any) {}).WithRegistry(telemetry.NewRegistry())
		srv := httptest.NewServer(api.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// stripMicros zeroes the only field allowed to differ between a local and
// a fleet sweep: wall-clock cost depends on where the work ran.
func stripMicros(sw *core.Sweep) {
	for _, byDS := range sw.ByPlatform {
		for _, ms := range byDS {
			for i := range ms {
				ms[i].Micros = 0
			}
		}
	}
}

// TestFleetSweepByteIdentical is the sharded-sweep acceptance check: the
// fleet sweep must merge byte-identically to a single-process RunSweep at
// ANY replica count — 1, 2 and 3 replicas all produce the same
// measurements, datasets and ordering.
func TestFleetSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep is a multi-second integration test")
	}
	checkFleetByteIdentical(t, fleetOpts(), 1, 2, 3)
}

// TestFleetSweepMicrosoftByteIdentical sends Microsoft's whole grid through
// HTTP train on one replica. Its surface defaults include one outside the
// registry range (SVM's max_iter=1), so a train path that re-checked
// parameters more strictly than the in-process sweep would fail here.
func TestFleetSweepMicrosoftByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep is a multi-second integration test")
	}
	opts := fleetOpts()
	opts.MaxDatasets = 1
	opts.Platforms = []string{"microsoft"}
	checkFleetByteIdentical(t, opts, 1)
}

// checkFleetByteIdentical runs opts in process and then across each fleet
// size, and fails unless every fleet sweep merges to the same measurements,
// datasets and ordering.
func checkFleetByteIdentical(t *testing.T, opts core.Options, fleetSizes ...int) {
	t.Helper()
	ctx := context.Background()
	want, err := core.RunSweep(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	stripMicros(want)

	for _, replicas := range fleetSizes {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			urls := startReplicas(t, replicas)
			got, err := core.RunSweepFleet(ctx, opts, urls)
			if err != nil {
				t.Fatal(err)
			}
			stripMicros(got)
			if !reflect.DeepEqual(got.ByPlatform, want.ByPlatform) {
				t.Fatal("fleet measurements differ from single-process sweep")
			}
			if len(got.Datasets) != len(want.Datasets) {
				t.Fatalf("fleet sweep has %d datasets, local %d", len(got.Datasets), len(want.Datasets))
			}
			for i := range got.Datasets {
				if got.Datasets[i].Name != want.Datasets[i].Name {
					t.Fatalf("dataset %d: fleet %q, local %q — corpus order broken",
						i, got.Datasets[i].Name, want.Datasets[i].Name)
				}
				if !reflect.DeepEqual(got.Datasets[i].TestY, want.Datasets[i].TestY) {
					t.Fatalf("dataset %s: test labels differ", got.Datasets[i].Name)
				}
			}
		})
	}
}

// TestLoadOrRunSweepOnAFleet runs a sweep through LoadOrRunSweep on one
// replica and reads the cache it saved back without endpoints: fleet and
// in-process sweeps share one cache.
func TestLoadOrRunSweepOnAFleet(t *testing.T) {
	opts := fleetOpts()
	opts.MaxDatasets = 1
	opts.Platforms = []string{"google"}
	path := filepath.Join(t.TempDir(), "sweep.json.gz")
	ctx := context.Background()
	ran, err := core.LoadOrRunSweep(ctx, path, opts, startReplicas(t, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := core.LoadOrRunSweep(ctx, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.ByPlatform, ran.ByPlatform) {
		t.Fatal("cached fleet sweep differs from the sweep that saved it")
	}
}

// TestRunSweepFleetRejectsEmptyFleet pins the error contract.
func TestRunSweepFleetRejectsEmptyFleet(t *testing.T) {
	if _, err := core.RunSweepFleet(context.Background(), fleetOpts(), nil); err == nil {
		t.Fatal("empty fleet accepted")
	}
}
