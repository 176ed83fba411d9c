// Package profiling closes the metrics -> traces -> profiles triangle: a
// continuous in-process profiler that periodically captures CPU, heap,
// mutex, block and goroutine profiles via runtime/pprof into a bounded
// on-disk ring of bundles, each with a JSON sidecar linking the capture
// to the environment fingerprint, a runtime health snapshot, and the
// slowest retained traces of the window — plus an SLO watchdog
// (watchdog.go) that turns a metric anomaly into an immediate tagged
// capture, so "why was it slow at 14:02" has a profile attached.
//
// The paper's thesis is that complexity/performance trade-offs are
// invisible without measurement; metrics say *that* a path is hot,
// retained traces say *which requests* were slow, and these bundles say
// *which code* the CPU was actually in. NSML (arXiv:1810.09957) makes the
// same case for profiling as a first-class MLaaS platform surface.
package profiling

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlaasbench/internal/perf"
	"mlaasbench/internal/telemetry"
)

// Capture reasons, stamped into sidecars and the captures counter.
const (
	ReasonPeriodic = "periodic"
	ReasonTrigger  = "trigger"
	ReasonManual   = "manual"
)

// cpuProfileMu serializes CPU profiling across every Profiler in the
// process: runtime/pprof supports one CPU profile at a time, and a second
// Start would fail. Concurrent captures on the *same* profiler never get
// here (the capturing flag drops them as "busy").
var cpuProfileMu sync.Mutex

// Config tunes a Profiler.
type Config struct {
	// Dir is the bundle ring directory (required).
	Dir string
	// Interval is the periodic capture period; <=0 disables the periodic
	// loop (the profiler then only captures on CaptureNow / triggers).
	Interval time.Duration
	// CPUDuration is the CPU sampling window per capture (default 1s,
	// clamped to half the interval so back-to-back captures never overlap).
	CPUDuration time.Duration
	// MaxBundles bounds the on-disk ring (default DefaultMaxBundles).
	MaxBundles int
	// Registry receives the profiling counters and is the default trace
	// source; nil means telemetry.Default().
	Registry *telemetry.Registry
	// TraceSource supplies the retained-trace summaries a sidecar links;
	// nil reads Registry.Traces().Summaries(). Loadgen points it at the
	// current pass's registry.
	TraceSource func() []telemetry.TraceSummary
}

const (
	// mutexFraction and blockRateNs configure the runtime's mutex and
	// block profilers from Start until Stop: one contention event in a
	// thousand, and a 10ms block rate. These are deliberately coarse: the
	// interleaved ServePredict A/B (bench_test.go) measured the
	// conventional fraction-100/1ms settings at ~15% predict throughput
	// cost on a contended serving path, far past the ~3% always-on
	// budget, while these sit inside run-to-run noise and still surface
	// the heavy hitters a hotspot diff needs.
	mutexFraction = 1000
	blockRateNs   = int(10 * time.Millisecond)
	// maxTraceRefs bounds how many slowest-trace ids a sidecar carries.
	maxTraceRefs = 8
)

func (c Config) withDefaults() Config {
	if c.CPUDuration <= 0 {
		c.CPUDuration = time.Second
	}
	if c.Interval > 0 && c.CPUDuration > c.Interval/2 {
		c.CPUDuration = c.Interval / 2
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default()
	}
	if c.TraceSource == nil {
		reg := c.Registry
		c.TraceSource = func() []telemetry.TraceSummary { return reg.Traces().Summaries() }
	}
	return c
}

// Profiler is the continuous capture loop plus the manual/triggered
// capture entry point. Safe for concurrent use.
type Profiler struct {
	cfg   Config
	store *Store

	capturing atomic.Bool // one capture at a time; extras drop as "busy"

	sloMu     sync.Mutex
	sloSource func() []SLOStatus

	mu        sync.Mutex
	done      chan struct{}
	wg        sync.WaitGroup
	prevMutex int
}

// New opens the bundle ring under cfg.Dir and returns a profiler. Nothing
// captures until Start (periodic) or CaptureNow (one-shot).
func New(cfg Config) (*Profiler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("profiling: Config.Dir is required")
	}
	cfg = cfg.withDefaults()
	st, err := OpenStore(cfg.Dir, cfg.MaxBundles)
	if err != nil {
		return nil, err
	}
	p := &Profiler{cfg: cfg, store: st}
	st.onDrop = p.drop
	return p, nil
}

// SetSLOSource points the sidecar's SLO-state field at fn; the watchdog
// calls this from Watch so even periodic bundles record the burn rates in
// effect when they were taken.
func (p *Profiler) SetSLOSource(fn func() []SLOStatus) {
	p.sloMu.Lock()
	p.sloSource = fn
	p.sloMu.Unlock()
}

// Store returns the profiler's bundle ring (the /debug/profiles surface
// serves from it).
func (p *Profiler) Store() *Store { return p.store }

// Start enables the runtime mutex/block profilers and, when the config
// has a positive interval, begins the periodic capture loop. Idempotent
// until Stop.
func (p *Profiler) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done != nil {
		return
	}
	p.prevMutex = runtime.SetMutexProfileFraction(mutexFraction)
	runtime.SetBlockProfileRate(blockRateNs)
	p.done = make(chan struct{})
	if p.cfg.Interval <= 0 {
		return
	}
	done := p.done
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		ticker := time.NewTicker(p.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				_, _ = p.CaptureNow(ReasonPeriodic, ReasonPeriodic, nil)
			}
		}
	}()
}

// Stop halts the periodic loop, waits for an in-flight capture it
// started, and restores the runtime profiler rates. Idempotent.
func (p *Profiler) Stop() {
	p.mu.Lock()
	if p.done == nil {
		p.mu.Unlock()
		return
	}
	close(p.done)
	p.done = nil
	runtime.SetMutexProfileFraction(p.prevMutex)
	runtime.SetBlockProfileRate(0) // the runtime offers no getter; restore to off
	p.mu.Unlock()
	p.wg.Wait()
}

// CaptureNow collects one full bundle (CPU window + instantaneous
// profiles + sidecar) and returns its sidecar. Reason should be one of
// the Reason* constants; tag is free-form and lands in the bundle id. At
// most one capture runs at a time — a concurrent call drops with reason
// "busy" and returns an error rather than queueing, because a capture
// that fires seconds late no longer explains the anomaly that asked for
// it.
func (p *Profiler) CaptureNow(tag, reason string, attrs map[string]string) (Meta, error) {
	if !p.capturing.CompareAndSwap(false, true) {
		p.drop("busy")
		return Meta{}, fmt.Errorf("profiling: capture already in flight")
	}
	defer p.capturing.Store(false)

	tmp, err := p.store.stage()
	if err != nil {
		p.drop("error")
		return Meta{}, err
	}
	meta, err := p.captureInto(tmp, tag, reason, attrs, time.Now())
	if err == nil {
		err = p.store.add(tmp, &meta)
	}
	if err != nil {
		_ = os.RemoveAll(tmp)
		p.drop("error")
		return Meta{}, err
	}
	p.cfg.Registry.Counter(telemetry.ProfilingCapturesTotal, "reason", reason).Inc()
	return meta, nil
}

// captureInto writes every profile into dir and returns the bundle's
// sidecar; the store stamps its id and writes it when it claims one.
func (p *Profiler) captureInto(dir, tag, reason string, attrs map[string]string, start time.Time) (Meta, error) {
	profiles := map[string]string{}

	// CPU first: it is the only profile with a sampling window, and the
	// instantaneous profiles taken after it describe the same interval's
	// end state. If another CPU profile is running (net/http/pprof, a
	// test harness), skip the CPU file but keep the rest of the bundle —
	// a partial bundle still answers most questions.
	cpuSkipped := false
	cpuProfileMu.Lock()
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		cpuProfileMu.Unlock()
		return Meta{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		cpuSkipped = true
		_ = f.Close()
		_ = os.Remove(f.Name())
	} else {
		time.Sleep(p.cfg.CPUDuration)
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			cpuProfileMu.Unlock()
			return Meta{}, err
		}
		profiles["cpu"] = "cpu.pprof"
	}
	cpuProfileMu.Unlock()

	for _, kind := range ProfileKinds {
		if kind == "cpu" {
			continue
		}
		prof := pprof.Lookup(kind)
		if prof == nil {
			continue
		}
		name := kind + ".pprof"
		pf, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return Meta{}, err
		}
		// debug=0 writes the gzipped proto form go tool pprof reads.
		if err := prof.WriteTo(pf, 0); err != nil {
			_ = pf.Close()
			return Meta{}, err
		}
		if err := pf.Close(); err != nil {
			return Meta{}, err
		}
		profiles[kind] = name
	}

	meta := Meta{
		Schema:     MetaSchemaVersion,
		Tag:        tag,
		Reason:     reason,
		Start:      start.UTC(),
		End:        time.Now().UTC(),
		Env:        perf.CurrentEnv(),
		Health:     captureHealth(),
		SlowTraces: p.slowTraces(),
		Profiles:   profiles,
		Attrs:      attrs,
	}
	if cpuSkipped {
		if meta.Attrs == nil {
			meta.Attrs = map[string]string{}
		}
		meta.Attrs["cpu_skipped"] = "another CPU profile was running"
	}
	p.sloMu.Lock()
	sloSource := p.sloSource
	p.sloMu.Unlock()
	if sloSource != nil {
		meta.SLO = sloSource()
	}
	return meta, nil
}

// slowTraces picks the slowest retained traces for the sidecar.
func (p *Profiler) slowTraces() []TraceRef {
	sums := p.cfg.TraceSource()
	sort.SliceStable(sums, func(i, j int) bool {
		return sums[i].DurationSeconds > sums[j].DurationSeconds
	})
	if len(sums) > maxTraceRefs {
		sums = sums[:maxTraceRefs]
	}
	refs := make([]TraceRef, 0, len(sums))
	for _, s := range sums {
		refs = append(refs, TraceRef{
			TraceID:         s.TraceID,
			Name:            s.Name,
			DurationSeconds: s.DurationSeconds,
			Error:           s.Error,
		})
	}
	return refs
}

func (p *Profiler) drop(reason string) {
	p.cfg.Registry.Counter(telemetry.ProfilingDroppedTotal, "reason", reason).Inc()
}

// captureHealth reads the runtime signals the health sampler tracks, at
// capture time.
func captureHealth() HealthSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return HealthSnapshot{
		Goroutines:    runtime.NumGoroutine(),
		HeapInuse:     ms.HeapInuse,
		HeapAlloc:     ms.TotalAlloc,
		GCCycles:      ms.NumGC,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		ResidentBytes: ms.Sys,
	}
}
