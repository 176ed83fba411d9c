package profiling

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mlaasbench/internal/telemetry"
)

func TestStoreRingPrunesOldest(t *testing.T) {
	reg := telemetry.NewRegistry()
	p, err := New(Config{
		Dir:         t.TempDir(),
		MaxBundles:  3,
		CPUDuration: 10 * time.Millisecond,
		Registry:    reg,
		TraceSource: func() []telemetry.TraceSummary { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := p.CaptureNow("ring", ReasonManual, nil); err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
	}
	metas, err := p.Store().List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 3 {
		t.Fatalf("ring holds %d bundles, want 3", len(metas))
	}
	// The survivors are the newest three (ids are time-sortable and List
	// returns oldest first).
	for i := 1; i < len(metas); i++ {
		if metas[i].ID <= metas[i-1].ID {
			t.Fatalf("bundles out of order: %s then %s", metas[i-1].ID, metas[i].ID)
		}
	}
	if n := reg.Counter(telemetry.ProfilingDroppedTotal, "reason", "evict").Value(); n != 2 {
		t.Fatalf("evict drops = %d, want 2", n)
	}
	if n := reg.Counter(telemetry.ProfilingCapturesTotal, "reason", ReasonManual).Value(); n != 5 {
		t.Fatalf("captures = %d, want 5", n)
	}
}

// GoToolPprof runs `go tool pprof args...` — the reader bundles are made
// for — under a 30 s deadline and returns its combined output. It skips
// the test when go is not on PATH. Exported for the external e2e tests.
func GoToolPprof(t testing.TB, args ...string) (string, error) {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go not on PATH: cannot run go tool pprof")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, goBin, append([]string{"tool", "pprof"}, args...)...).CombinedOutput()
	return string(out), err
}

// goroutineProfile writes this process's goroutine profile, as
// runtime/pprof encodes it, and returns its bytes.
func goroutineProfile(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A complete profile written by runtime/pprof reads back with go tool
// pprof -raw, down to this test's own goroutine.
func TestParseRealGoroutineProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "goroutine.pprof")
	if err := os.WriteFile(path, goroutineProfile(t), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := GoToolPprof(t, "-raw", path)
	if err != nil || !strings.Contains(out, "TestParseRealGoroutineProfile") {
		t.Errorf("whole goroutine profile: err %v, or this test's goroutine missing:\n%s", err, out)
	}
}

// A truncated profile and garbage bytes must not read, so an exit 0 from
// go tool pprof -raw really means the bundle file is whole.
func TestParseProfileMalformed(t *testing.T) {
	whole := goroutineProfile(t)
	dir := t.TempDir()
	files := map[string][]byte{
		"truncated": whole[:len(whole)/2],
		"garbage":   []byte("this is not a profile\x00\x01\x02"),
	}
	for name, blob := range files {
		path := filepath.Join(dir, name+".pprof")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if out, err := GoToolPprof(t, "-raw", path); err == nil {
			t.Errorf("%s profile read without error:\n%s", name, out)
		}
	}
}

// Two profilers sharing a directory each count bundle seqs from 1, so
// overlapping captures under one tag in the same second ask both stores
// for the same id. Both bundles must land, each under its own id, and
// each with its own files.
func TestStoresSharingADirDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	at := time.Date(2026, 10, 17, 3, 4, 5, 0, time.UTC)
	var stores []*Store
	var tmps []string
	for i := 0; i < 2; i++ {
		st, err := OpenStore(dir, 4)
		if err != nil {
			t.Fatal(err)
		}
		// Stage both before either lands, as overlapping captures do.
		tmp, err := st.stage()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, "heap.pprof"), []byte{byte('a' + i)}, 0o644); err != nil {
			t.Fatal(err)
		}
		stores, tmps = append(stores, st), append(tmps, tmp)
	}
	for i, st := range stores {
		meta := Meta{Schema: MetaSchemaVersion, Tag: "pass", Start: at, Profiles: map[string]string{"heap": "heap.pprof"}}
		if err := st.add(tmps[i], &meta); err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
	}
	metas, err := stores[0].List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"20261017T030405-0001-pass", "20261017T030405-0002-pass"}
	if len(metas) != len(want) {
		t.Fatalf("ring holds %d bundles, want %d: %+v", len(metas), len(want), metas)
	}
	for i, m := range metas {
		if m.ID != want[i] {
			t.Errorf("bundle %d id %q, want %q", i, m.ID, want[i])
		}
		path, err := stores[0].ProfilePath(m.ID, "heap")
		if err != nil {
			t.Fatal(err)
		}
		if blob, err := os.ReadFile(path); err != nil || string(blob) != string(rune('a'+i)) {
			t.Errorf("bundle %s holds %q (%v), want the file store %d staged", m.ID, blob, err, i)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("staging dirs left behind: %d entries in the ring dir", len(entries))
	}
}

func TestStoreRejectsTraversal(t *testing.T) {
	st, err := OpenStore(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"", "..", "../x", "a/b", `a\b`, ".hidden"} {
		if _, err := st.Get(id); err == nil {
			t.Fatalf("Get(%q) accepted a traversal id", id)
		}
		if _, err := st.ProfilePath(id, "cpu"); err == nil {
			t.Fatalf("ProfilePath(%q) accepted a traversal id", id)
		}
	}
}

func TestCaptureSidecarContents(t *testing.T) {
	reg := telemetry.NewRegistry()
	// More traces than a sidecar keeps: the fastest must fall off.
	traces := []telemetry.TraceSummary{
		{TraceID: "t-slow", Name: "predict", DurationSeconds: 1.5},
		{TraceID: "t-fast", Name: "predict", DurationSeconds: 0.01},
		{TraceID: "t-mid", Name: "predict", DurationSeconds: 0.7, Error: "boom"},
	}
	for i := 0; i < maxTraceRefs; i++ {
		traces = append(traces, telemetry.TraceSummary{
			TraceID: fmt.Sprintf("t-%d", i), Name: "predict", DurationSeconds: 0.1 + float64(i)/100,
		})
	}
	p, err := New(Config{
		Dir:         t.TempDir(),
		CPUDuration: 10 * time.Millisecond,
		Registry:    reg,
		TraceSource: func() []telemetry.TraceSummary { return append([]telemetry.TraceSummary(nil), traces...) },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.SetSLOSource(func() []SLOStatus {
		return []SLOStatus{{Name: "predict-p99", LatencyBurnRate: 2.5, Breached: true}}
	})
	meta, err := p.CaptureNow("unit test!", ReasonTrigger, map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}

	if meta.Schema != MetaSchemaVersion || meta.Reason != ReasonTrigger {
		t.Fatalf("bad schema/reason: %+v", meta)
	}
	if !strings.Contains(meta.ID, "unit_test_") {
		t.Fatalf("tag not sanitized into id: %q", meta.ID)
	}
	if meta.Env.GoVersion == "" || meta.Env.NumCPU == 0 {
		t.Fatalf("env fingerprint missing: %+v", meta.Env)
	}
	if meta.Health.Goroutines == 0 || meta.Health.GOMAXPROCS == 0 {
		t.Fatalf("health snapshot missing: %+v", meta.Health)
	}
	// The slowest maxTraceRefs traces, slowest first.
	if len(meta.SlowTraces) != maxTraceRefs || meta.SlowTraces[0].TraceID != "t-slow" || meta.SlowTraces[1].TraceID != "t-mid" {
		t.Fatalf("slow traces wrong: %+v", meta.SlowTraces)
	}
	for i, ref := range meta.SlowTraces {
		if ref.TraceID == "t-fast" || (i > 0 && ref.DurationSeconds > meta.SlowTraces[i-1].DurationSeconds) {
			t.Fatalf("slow traces not the slowest, in order: %+v", meta.SlowTraces)
		}
	}
	if meta.SlowTraces[1].Error != "boom" {
		t.Fatalf("trace error lost: %+v", meta.SlowTraces[1])
	}
	if len(meta.SLO) != 1 || !meta.SLO[0].Breached {
		t.Fatalf("SLO state missing: %+v", meta.SLO)
	}
	if meta.Attrs["k"] != "v" {
		t.Fatalf("attrs lost: %+v", meta.Attrs)
	}

	// Round-trip through the store; go tool pprof must read every
	// recorded profile.
	got, err := p.Store().Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Profiles) == 0 {
		t.Fatal("no profiles recorded")
	}
	for kind := range got.Profiles {
		path, err := p.Store().ProfilePath(meta.ID, kind)
		if err != nil {
			t.Fatal(err)
		}
		if out, err := GoToolPprof(t, "-raw", path); err != nil {
			t.Fatalf("go tool pprof -raw %s: %v\n%s", kind, err, out)
		}
	}
	// Heap/goroutine must always be present; cpu may be skipped only when
	// another CPU profile was running (not the case here).
	for _, kind := range []string{"cpu", "heap", "goroutine"} {
		if _, ok := got.Profiles[kind]; !ok {
			t.Fatalf("bundle missing %s profile: %+v", kind, got.Profiles)
		}
	}
}

func TestCaptureBusyDrop(t *testing.T) {
	reg := telemetry.NewRegistry()
	p, err := New(Config{
		Dir:         t.TempDir(),
		CPUDuration: 200 * time.Millisecond,
		Registry:    reg,
		TraceSource: func() []telemetry.TraceSummary { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.CaptureNow("long", ReasonManual, nil)
		done <- err
	}()
	// Wait until the first capture holds the flag, then collide with it.
	for !p.capturing.Load() {
		time.Sleep(time.Millisecond)
	}
	if _, err := p.CaptureNow("collide", ReasonManual, nil); err == nil {
		t.Fatal("concurrent capture did not fail busy")
	}
	if n := reg.Counter(telemetry.ProfilingDroppedTotal, "reason", "busy").Value(); n != 1 {
		t.Fatalf("busy drops = %d, want 1", n)
	}
	if err := <-done; err != nil {
		t.Fatalf("first capture: %v", err)
	}
}
