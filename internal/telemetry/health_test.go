package telemetry

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestSetBuildInfo(t *testing.T) {
	reg := NewRegistry()
	SetBuildInfo(reg)
	SetBuildInfo(reg) // idempotent: same series, same value

	snap := reg.Snapshot()
	var found *SeriesValue
	for i := range snap.Gauges {
		if snap.Gauges[i].Name == BuildInfoGauge {
			if found != nil {
				t.Fatal("duplicate build_info series")
			}
			found = &snap.Gauges[i]
		}
	}
	if found == nil || found.Value != 1 {
		t.Fatalf("build_info gauge missing or not 1: %+v", found)
	}
	if found.Labels["go_version"] != runtime.Version() {
		t.Errorf("go_version label = %q", found.Labels["go_version"])
	}
	if found.Labels["num_cpu"] != strconv.Itoa(runtime.NumCPU()) {
		t.Errorf("num_cpu label = %q", found.Labels["num_cpu"])
	}
	if found.Labels["gomaxprocs"] == "" {
		t.Error("gomaxprocs label empty")
	}
}

func TestFingerprintString(t *testing.T) {
	s := Fingerprint().String()
	for _, want := range []string{runtime.Version(), "gomaxprocs=", "numcpu="} {
		if !strings.Contains(s, want) {
			t.Errorf("fingerprint %q missing %q", s, want)
		}
	}
}

// A build from a modified tree is stamped "<revision>-dirty", and the
// short form keeps the suffix.
func TestVCSRevisionDirty(t *testing.T) {
	const rev = "0123456789abcdef0123456789abcdef01234567"
	for _, tc := range []struct {
		settings []debug.BuildSetting
		want     string
	}{
		{nil, ""},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}}, ""},
		{[]debug.BuildSetting{{Key: "vcs.revision", Value: rev}, {Key: "vcs.modified", Value: "false"}}, rev},
		{[]debug.BuildSetting{{Key: "vcs.modified", Value: "true"}, {Key: "vcs.revision", Value: rev}}, rev + "-dirty"},
	} {
		if got := vcsRevision(tc.settings); got != tc.want {
			t.Errorf("vcsRevision(%v) = %q, want %q", tc.settings, got, tc.want)
		}
	}
	if got := ShortSHA(rev + "-dirty"); got != "0123456789ab-dirty" {
		t.Errorf("ShortSHA = %q", got)
	}
	if got := ShortSHA("abc"); got != "abc" {
		t.Errorf("ShortSHA(abc) = %q", got)
	}
}

// TestHealthSampler runs the sampler at a short interval under real GC
// pressure and checks every family reports.
func TestHealthSampler(t *testing.T) {
	reg := NewRegistry()
	stop := StartHealthSampler(reg, 10*time.Millisecond)
	// Generate garbage and force collections so GC metrics have cycles to
	// observe, across at least two ticks so deltas are exercised.
	for i := 0; i < 3; i++ {
		sink := make([][]byte, 256)
		for j := range sink {
			sink[j] = make([]byte, 4096)
		}
		runtime.GC()
		time.Sleep(15 * time.Millisecond)
	}
	stop()
	stop() // second stop is a no-op, not a double-close panic

	if v := reg.Gauge(GoroutinesGauge).Value(); v <= 0 {
		t.Errorf("goroutines gauge %d", v)
	}
	if v := reg.Gauge(HeapInuseGauge).Value(); v <= 0 {
		t.Errorf("heap inuse gauge %d", v)
	}
	if v := reg.Counter(HeapAllocTotal).Value(); v <= 0 {
		t.Errorf("alloc total %d", v)
	}
	if v := reg.Counter(GCCyclesTotal).Value(); v < 3 {
		t.Errorf("gc cycles %d, want >= 3 forced collections", v)
	}
	if n := reg.Histogram(GCPauseHistogram).Count(); n < 3 {
		t.Errorf("gc pause observations %d, want >= 3", n)
	}
	if n := reg.Histogram(SchedLatencyHistogram).Count(); n == 0 {
		t.Error("no sched latency probes recorded")
	}
	// After stop, no further samples land.
	before := reg.Histogram(SchedLatencyHistogram).Count()
	time.Sleep(30 * time.Millisecond)
	if after := reg.Histogram(SchedLatencyHistogram).Count(); after != before {
		t.Errorf("sampler still running after stop: %d -> %d", before, after)
	}
}

// TestHealthSamplerStopRestart pins the stop/restart contract: stop is
// idempotent (any number of calls, any interleaving), and a stopped
// registry can host a fresh sampler that resumes the same families without
// re-describe panics or counter resets.
func TestHealthSamplerStopRestart(t *testing.T) {
	reg := NewRegistry()

	stop1 := StartHealthSampler(reg, 5*time.Millisecond)
	time.Sleep(12 * time.Millisecond)
	stop1()
	stop1() // repeated stops of the same sampler are no-ops
	probesAfterFirst := reg.Histogram(SchedLatencyHistogram).Count()
	allocAfterFirst := reg.Counter(HeapAllocTotal).Value()
	if probesAfterFirst == 0 {
		t.Fatal("first sampler recorded nothing")
	}

	// Restart on the same registry: families are re-described (must not
	// conflict) and cumulative series keep growing from where they were.
	stop2 := StartHealthSampler(reg, 5*time.Millisecond)
	defer stop2()
	deadline := time.Now().Add(time.Second)
	for reg.Histogram(SchedLatencyHistogram).Count() <= probesAfterFirst {
		if time.Now().After(deadline) {
			t.Fatal("restarted sampler recorded no new probes")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if v := reg.Counter(HeapAllocTotal).Value(); v < allocAfterFirst {
		t.Errorf("alloc total went backwards across restart: %d -> %d", allocAfterFirst, v)
	}
	stop2()
	stop1() // stale stop from the first sampler must not kill the pattern
	stop2()
}
