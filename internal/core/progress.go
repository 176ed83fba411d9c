package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// ProgressTracker counts completed (platform, dataset) sweep units and
// derives rate and ETA. It is lock-free (the scheduler's workers call Add
// concurrently) and cheap enough to snapshot from a UI ticker or an HTTP
// handler while the sweep runs.
type ProgressTracker struct {
	start atomic.Int64 // UnixNano at Begin
	total atomic.Int64
	done  atomic.Int64
}

// NewProgressTracker returns an idle tracker; RunSweep calls Begin.
func NewProgressTracker() *ProgressTracker { return &ProgressTracker{} }

// Begin (re)starts the clock with the given total unit count.
func (t *ProgressTracker) Begin(total int) {
	t.start.Store(time.Now().UnixNano())
	t.total.Store(int64(total))
	t.done.Store(0)
}

// Add records n more completed units.
func (t *ProgressTracker) Add(n int) { t.done.Add(int64(n)) }

// ProgressSnapshot is one observation of sweep progress — the JSON body of
// the /progress endpoint and the source of the live progress line.
type ProgressSnapshot struct {
	TotalUnits     int     `json:"total_units"`
	DoneUnits      int     `json:"done_units"`
	Percent        float64 `json:"percent"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	UnitsPerSec    float64 `json:"units_per_sec"`
	// EtaSeconds extrapolates the observed rate over the remaining units;
	// -1 while no unit has finished yet (rate unknown).
	EtaSeconds float64 `json:"eta_seconds"`
}

// Snapshot reads the current progress.
func (t *ProgressTracker) Snapshot() ProgressSnapshot {
	s := ProgressSnapshot{
		TotalUnits: int(t.total.Load()),
		DoneUnits:  int(t.done.Load()),
		EtaSeconds: -1,
	}
	if start := t.start.Load(); start > 0 {
		s.ElapsedSeconds = time.Since(time.Unix(0, start)).Seconds()
	}
	if s.TotalUnits > 0 {
		s.Percent = 100 * float64(s.DoneUnits) / float64(s.TotalUnits)
	}
	if s.DoneUnits > 0 && s.ElapsedSeconds > 0 {
		s.UnitsPerSec = float64(s.DoneUnits) / s.ElapsedSeconds
		if s.TotalUnits >= s.DoneUnits {
			s.EtaSeconds = float64(s.TotalUnits-s.DoneUnits) / s.UnitsPerSec
		}
	}
	return s
}

// Line renders the snapshot as the one-line form mlaas-bench repaints.
func (s ProgressSnapshot) Line() string {
	eta := "?"
	if s.EtaSeconds >= 0 {
		eta = (time.Duration(s.EtaSeconds * float64(time.Second))).Round(time.Second).String()
	}
	return fmt.Sprintf("sweep %d/%d units (%.0f%%)  %.2f units/s  eta %s",
		s.DoneUnits, s.TotalUnits, s.Percent, s.UnitsPerSec, eta)
}

// Handler serves the snapshot as JSON — mount it at /progress.
func (t *ProgressTracker) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(t.Snapshot())
	})
}
