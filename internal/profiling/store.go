// The on-disk profile store: a bounded ring of capture bundles. Each
// bundle is one directory named by a time-sortable id, holding the pprof
// proto files (<kind>.pprof) plus a meta.json sidecar that makes the
// capture attributable after the fact — the environment fingerprint the
// perf history uses, a runtime health snapshot, the ids of the slowest
// retained traces in the window, and the SLO state that triggered it.
// When the ring outgrows its bound the oldest bundle is pruned, so a
// long-running server's profile directory is self-limiting.
package profiling

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mlaasbench/internal/perf"
)

// MetaSchemaVersion identifies the sidecar layout; readers reject newer
// schemas rather than misreading them.
const MetaSchemaVersion = 1

// DefaultMaxBundles bounds the on-disk ring when the caller does not.
const DefaultMaxBundles = 32

// ProfileKinds are the runtime/pprof profiles a capture collects, in
// bundle order. "cpu" is a sampling window; the rest are instantaneous.
var ProfileKinds = []string{"cpu", "heap", "mutex", "block", "goroutine"}

// TraceRef points a bundle at one retained trace from the capture window,
// so a metric anomaly links to the exact request trees that explain it.
type TraceRef struct {
	TraceID         string  `json:"trace_id"`
	Name            string  `json:"name"`
	DurationSeconds float64 `json:"duration_seconds"`
	Error           string  `json:"error,omitempty"`
}

// HealthSnapshot is the runtime state at capture time — the same signals
// the telemetry health sampler tracks, read directly so a bundle is
// self-describing even when the sampler is off.
type HealthSnapshot struct {
	Goroutines    int    `json:"goroutines"`
	HeapInuse     uint64 `json:"heap_inuse_bytes"`
	HeapAlloc     uint64 `json:"heap_alloc_bytes_total"`
	GCCycles      uint32 `json:"gc_cycles"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	ResidentBytes uint64 `json:"sys_bytes"`
}

// SLOStatus is one SLO's watchdog state as stamped into a sidecar.
type SLOStatus struct {
	Name            string  `json:"name"`
	LatencyBurnRate float64 `json:"latency_burn_rate"`
	ErrorBurnRate   float64 `json:"error_burn_rate"`
	QueueDepth      int64   `json:"queue_depth"`
	Breached        bool    `json:"breached"`
}

// Meta is the JSON sidecar written next to every bundle's profiles.
type Meta struct {
	Schema int    `json:"schema"`
	ID     string `json:"id"`
	// Tag is the capture label: "periodic" for interval captures, the
	// SLO name for watchdog triggers, or whatever the caller passed to
	// CaptureNow ("pass-end:forward", "end-of-run", ...).
	Tag string `json:"tag"`
	// Reason is the capture class: "periodic", "trigger" or "manual".
	Reason     string         `json:"reason"`
	Start      time.Time      `json:"start"`
	End        time.Time      `json:"end"`
	Env        perf.Env       `json:"env"`
	Health     HealthSnapshot `json:"health"`
	SlowTraces []TraceRef     `json:"slow_traces,omitempty"`
	SLO        []SLOStatus    `json:"slo,omitempty"`
	// Profiles maps kind -> filename inside the bundle directory.
	Profiles map[string]string `json:"profiles"`
	// Attrs carries free-form capture context (the triggering burn rate,
	// the loadgen pass name, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Store is the bounded on-disk bundle ring. Safe for concurrent use; the
// single mutex is uncontended (captures are rare by construction).
type Store struct {
	dir string
	max int

	mu  sync.Mutex
	seq int
	// onDrop, when set, observes ring evictions (the profiler points it
	// at the dropped counter).
	onDrop func(reason string)
}

// OpenStore opens (creating if needed) a bundle ring under dir holding at
// most max bundles (<=0 means DefaultMaxBundles).
func OpenStore(dir string, max int) (*Store, error) {
	if max <= 0 {
		max = DefaultMaxBundles
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, max: max}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// newID mints a time-sortable bundle id unique within the store.
func (s *Store) newID(now time.Time, tag string) string {
	s.mu.Lock()
	s.seq++
	seq := s.seq
	s.mu.Unlock()
	return fmt.Sprintf("%s-%04d-%s", now.UTC().Format("20060102T150405"), seq, sanitizeTag(tag))
}

// sanitizeTag maps a tag onto the filesystem-safe alphabet bundle ids use.
func sanitizeTag(tag string) string {
	out := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, tag)
	if out == "" {
		out = "capture"
	}
	const maxTag = 48
	if len(out) > maxTag {
		out = out[:maxTag]
	}
	return out
}

// stage makes the directory one capture writes its profiles into before
// add moves it into place. Each capture gets its own, so profilers that
// share a ring directory never write into each other's bundle.
func (s *Store) stage() (string, error) {
	tmp, err := os.MkdirTemp(s.dir, ".tmp-")
	if err != nil {
		return "", err
	}
	// MkdirTemp makes 0700; bundles are 0755 so another user (an operator
	// running go tool pprof) can read them.
	if err := os.Chmod(tmp, 0o755); err != nil {
		_ = os.RemoveAll(tmp)
		return "", err
	}
	return tmp, nil
}

// add gives the bundle staged in tmpDir an id, writes meta as its
// sidecar, moves it into place and prunes the ring. Profilers sharing a
// directory each count seq from 1, so another one's capture in the same
// second under the same tag can already hold the id; the bundle then
// takes the next free seq.
func (s *Store) add(tmpDir string, meta *Meta) error {
	for {
		meta.ID = s.newID(meta.Start, meta.Tag)
		blob, err := json.MarshalIndent(meta, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(tmpDir, "meta.json"), blob, 0o644); err != nil {
			return err
		}
		err = os.Rename(tmpDir, filepath.Join(s.dir, meta.ID))
		if err == nil {
			return s.prune()
		}
		if !errors.Is(err, fs.ErrExist) {
			return err
		}
	}
}

// prune deletes the oldest bundles until at most max remain.
func (s *Store) prune() error {
	ids, err := s.ids()
	if err != nil {
		return err
	}
	for len(ids) > s.max {
		if err := os.RemoveAll(filepath.Join(s.dir, ids[0])); err != nil {
			return err
		}
		s.mu.Lock()
		drop := s.onDrop
		s.mu.Unlock()
		if drop != nil {
			drop("evict")
		}
		ids = ids[1:]
	}
	return nil
}

// ids lists bundle directory names, oldest first (ids are time-sortable).
func (s *Store) ids() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		// Skip in-progress temp dirs and stray files.
		if !e.IsDir() || strings.HasPrefix(e.Name(), ".") {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.dir, e.Name(), "meta.json")); err != nil {
			continue
		}
		ids = append(ids, e.Name())
	}
	sort.Strings(ids)
	return ids, nil
}

// List returns every bundle's sidecar, oldest first.
func (s *Store) List() ([]Meta, error) {
	ids, err := s.ids()
	if err != nil {
		return nil, err
	}
	metas := make([]Meta, 0, len(ids))
	for _, id := range ids {
		m, err := s.Get(id)
		if err != nil {
			// A bundle pruned between ids() and here is not an error.
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		metas = append(metas, m)
	}
	return metas, nil
}

// Get loads one bundle's sidecar by id.
func (s *Store) Get(id string) (Meta, error) {
	if !validBundleID(id) {
		return Meta{}, fmt.Errorf("bad bundle id %q", id)
	}
	blob, err := os.ReadFile(filepath.Join(s.dir, id, "meta.json"))
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(blob, &m); err != nil {
		return Meta{}, fmt.Errorf("bundle %s: bad sidecar: %w", id, err)
	}
	if m.Schema > MetaSchemaVersion {
		return Meta{}, fmt.Errorf("bundle %s: sidecar schema %d newer than this binary understands (%d)", id, m.Schema, MetaSchemaVersion)
	}
	return m, nil
}

// ProfilePath returns the on-disk path of one profile inside a bundle,
// validating both names so ids from HTTP requests cannot traverse out of
// the store.
func (s *Store) ProfilePath(id, kind string) (string, error) {
	m, err := s.Get(id)
	if err != nil {
		return "", err
	}
	name, ok := m.Profiles[kind]
	if !ok {
		return "", fmt.Errorf("bundle %s has no %q profile", id, kind)
	}
	if name != filepath.Base(name) || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("bundle %s: suspicious profile filename %q", id, name)
	}
	return filepath.Join(s.dir, id, name), nil
}

// validBundleID rejects ids that could escape the store directory.
func validBundleID(id string) bool {
	if id == "" || id != filepath.Base(id) || strings.HasPrefix(id, ".") {
		return false
	}
	return !strings.ContainsAny(id, "/\\")
}
