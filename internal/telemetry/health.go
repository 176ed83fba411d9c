package telemetry

import (
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Runtime health metric names. The sampler (StartHealthSampler) produces
// them; /metrics and /metrics.json expose them next to the request
// metrics, so a latency regression can be read against what the runtime
// was doing at the time (GC churn, goroutine pileup, scheduler delay).
const (
	// BuildInfoGauge is the constant-1 gauge whose labels carry the build
	// fingerprint (go_version, gomaxprocs, num_cpu, git_sha) — the
	// Prometheus idiom for attaching environment metadata to a scrape.
	BuildInfoGauge = "mlaas_build_info"

	// GoroutinesGauge is the live goroutine count.
	GoroutinesGauge = "mlaas_goroutines"

	// HeapInuseGauge is bytes of heap memory in active spans.
	HeapInuseGauge = "mlaas_heap_inuse_bytes"

	// HeapAllocTotal counts cumulative bytes allocated on the heap; its
	// rate is the allocation pressure the serving path generates.
	HeapAllocTotal = "mlaas_heap_alloc_bytes_total"

	// GCCyclesTotal counts completed GC cycles.
	GCCyclesTotal = "mlaas_gc_cycles_total"

	// GCPauseHistogram records individual stop-the-world pause durations.
	GCPauseHistogram = "mlaas_gc_pause_seconds"

	// SchedLatencyHistogram is a scheduling-latency proxy: each sample the
	// sampler sleeps for a fixed short interval and records how far past
	// the deadline the runtime actually woke it. Overshoot grows when the
	// scheduler is saturated (every P busy, timer goroutines queue).
	SchedLatencyHistogram = "mlaas_sched_latency_seconds"
)

// BuildFingerprint identifies the toolchain and CPU budget a process is
// running under — the minimum context every recorded number needs to be
// comparable later.
type BuildFingerprint struct {
	GoVersion  string
	GOMAXPROCS int
	NumCPU     int
	GitSHA     string // VCS revision from build info, "-dirty" if modified; often empty for go run / test binaries
}

// String renders the fingerprint on one line.
func (f BuildFingerprint) String() string {
	s := f.GoVersion + " " + runtime.GOOS + "/" + runtime.GOARCH +
		" gomaxprocs=" + strconv.Itoa(f.GOMAXPROCS) + " numcpu=" + strconv.Itoa(f.NumCPU)
	if f.GitSHA != "" {
		s += " sha=" + ShortSHA(f.GitSHA)
	}
	return s
}

var (
	fingerprintOnce sync.Once
	fingerprintVal  BuildFingerprint
)

// Fingerprint returns the process build fingerprint. GOMAXPROCS is read
// fresh each call (it can change); the rest is computed once.
func Fingerprint() BuildFingerprint {
	fingerprintOnce.Do(func() {
		fingerprintVal = BuildFingerprint{
			GoVersion: runtime.Version(),
			NumCPU:    runtime.NumCPU(),
		}
		if bi, ok := debug.ReadBuildInfo(); ok {
			fingerprintVal.GitSHA = vcsRevision(bi.Settings)
		}
	})
	fp := fingerprintVal
	fp.GOMAXPROCS = runtime.GOMAXPROCS(0)
	return fp
}

// vcsRevision is the build's vcs.revision, suffixed "-dirty" when
// vcs.modified says the tree had uncommitted changes, so a number measured
// on a modified tree is not credited to the commit beneath it.
func vcsRevision(settings []debug.BuildSetting) string {
	rev, modified := "", false
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if rev != "" && modified {
		rev += "-dirty"
	}
	return rev
}

// ShortSHA abbreviates a revision to 12 hex digits, keeping a "-dirty"
// suffix.
func ShortSHA(sha string) string {
	sha, dirty := strings.CutSuffix(sha, "-dirty")
	if len(sha) > 12 {
		sha = sha[:12]
	}
	if dirty {
		sha += "-dirty"
	}
	return sha
}

// SetBuildInfo registers the mlaas_build_info gauge in reg: value 1, with
// the fingerprint as labels. Call once at process start; calling again is
// harmless (same series, same value).
func SetBuildInfo(reg *Registry) {
	fp := Fingerprint()
	reg.Describe(BuildInfoGauge, "Build/environment fingerprint as labels; value is always 1.")
	labels := []string{
		"go_version", fp.GoVersion,
		"gomaxprocs", strconv.Itoa(fp.GOMAXPROCS),
		"num_cpu", strconv.Itoa(fp.NumCPU),
	}
	if fp.GitSHA != "" {
		labels = append(labels, "git_sha", fp.GitSHA)
	}
	reg.Gauge(BuildInfoGauge, labels...).Set(1)
}

// schedProbe is the sleep the sampler issues to measure wake-up
// overshoot. Long enough to be a real timer sleep, short enough that one
// probe per sample tick is free.
const schedProbe = time.Millisecond

// StartHealthSampler begins sampling runtime health into reg every
// interval and returns a stop function that halts the sampler and waits
// for its goroutine to exit. Each tick records the goroutine count, heap
// in-use, cumulative allocation, new GC cycles and their individual pause
// durations, and one scheduling-latency probe.
func StartHealthSampler(reg *Registry, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	reg.Describe(GoroutinesGauge, "Live goroutines.")
	reg.Describe(HeapInuseGauge, "Heap bytes in active spans.")
	reg.Describe(HeapAllocTotal, "Cumulative heap bytes allocated.")
	reg.Describe(GCCyclesTotal, "Completed GC cycles.")
	reg.Describe(GCPauseHistogram, "Individual GC stop-the-world pause durations.")
	reg.Describe(SchedLatencyHistogram, "Timer wake-up overshoot (scheduling latency proxy).")

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := healthSampler{reg: reg}
		s.sample() // one immediate sample so short-lived processes still report
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				s.sample()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// healthSampler carries the deltas between ticks.
type healthSampler struct {
	reg       *Registry
	lastAlloc uint64
	lastNumGC uint32
}

func (s *healthSampler) sample() {
	s.reg.Gauge(GoroutinesGauge).Set(int64(runtime.NumGoroutine()))

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge(HeapInuseGauge).Set(int64(ms.HeapInuse))
	if ms.TotalAlloc >= s.lastAlloc {
		s.reg.Counter(HeapAllocTotal).Add(int64(ms.TotalAlloc - s.lastAlloc))
	}
	s.lastAlloc = ms.TotalAlloc

	if n := ms.NumGC - s.lastNumGC; n > 0 {
		s.reg.Counter(GCCyclesTotal).Add(int64(n))
		// PauseNs is a circular buffer of the last 256 pause times; replay
		// only the cycles since the previous tick.
		replay := n
		if replay > uint32(len(ms.PauseNs)) {
			replay = uint32(len(ms.PauseNs))
		}
		h := s.reg.Histogram(GCPauseHistogram)
		for i := uint32(0); i < replay; i++ {
			idx := (ms.NumGC - i - 1 + 256) % 256
			h.Observe(float64(ms.PauseNs[idx]) / 1e9)
		}
	}
	s.lastNumGC = ms.NumGC

	// Scheduling-latency probe: how late does a 1ms timer fire?
	t0 := time.Now()
	time.Sleep(schedProbe)
	overshoot := time.Since(t0) - schedProbe
	if overshoot < 0 {
		overshoot = 0
	}
	s.reg.Histogram(SchedLatencyHistogram).Observe(overshoot.Seconds())
}
