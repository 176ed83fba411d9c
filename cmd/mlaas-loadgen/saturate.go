package main

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlaasbench/internal/client"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/pipeline"
	"mlaasbench/internal/telemetry"
)

// SaturationPoint is one offered-load level of the sweep. Goodput counts
// only successful predicts; sheds are the server's 503 + Retry-After
// admission rejections, split from real errors by status code.
type SaturationPoint struct {
	OfferedRPS float64 `json:"offered_rps"`
	GoodputRPS float64 `json:"goodput_rps"`
	ShedRPS    float64 `json:"shed_rps"`
	Requests   int     `json:"requests"` // completed arrivals (good + late + shed + errors)
	Good       int     `json:"good"`
	// Late counts successes that completed after the offered window closed
	// (drain stragglers); they are excluded from goodput.
	Late int `json:"late,omitempty"`
	// Dropped counts arrivals the generator refused to send because the
	// in-flight cap was reached — offered load the client machine itself
	// could not carry. They are not goodput and not server sheds.
	Dropped     int     `json:"dropped,omitempty"`
	Shed        int     `json:"shed"`
	Errors      int     `json:"errors"`
	DurationSec float64 `json:"duration_sec"`
	P95Ms       float64 `json:"p95_ms"` // over in-window successful requests only
	// ErrorsByStatus breaks every failed arrival down by HTTP status code
	// ("503", "500", ...); transport failures that never carried a status
	// are keyed "network". The "503" entry equals Shed.
	ErrorsByStatus map[string]int `json:"errors_by_status,omitempty"`
}

// SaturationReport is the sweep artifact: the goodput-vs-offered-load curve
// plus its knee. With admission control on, goodput past the knee should
// stay flat (shed the excess) instead of collapsing — the acceptance bar is
// goodput within 10% of peak at 2x the knee's offered load.
type SaturationReport struct {
	// CapacityRPS is the closed-loop throughput measured before an "auto"
	// sweep; the sweep rates are multiples of it. 0 for explicit rate lists.
	CapacityRPS float64           `json:"capacity_rps,omitempty"`
	Points      []SaturationPoint `json:"points"`
	// KneeRPS is the smallest offered rate whose goodput reaches 95% of the
	// peak goodput across the sweep — where the curve stops climbing.
	KneeRPS        float64 `json:"knee_rps"`
	PeakGoodputRPS float64 `json:"peak_goodput_rps"`
	// GoodputAt2xKneeRPS is the goodput of the first point offered at least
	// 2x the knee rate (0 when the sweep never reached 2x the knee).
	GoodputAt2xKneeRPS float64 `json:"goodput_at_2x_knee_rps"`
}

// autoMultiples are the offered-load levels of an "auto" sweep, as
// fractions of the measured closed-loop capacity: below the knee, at it,
// and well past it.
var autoMultiples = []float64{0.5, 0.75, 1.0, 1.5, 2.0, 3.0}

// runSaturation trains one model, then measures goodput at each offered
// rate with an open-loop arrival process. "auto" first measures closed-loop
// capacity with `clients` workers and sweeps multiples of it.
func runSaturation(url, platform string, cfg pipeline.Config, sp dataset.Split, seed uint64, clients, batch int, codec client.Codec, spec string, pointDur time.Duration, reg *telemetry.Registry) (*SaturationReport, error) {
	ctx := context.Background()
	c := client.New(url).WithCodec(codec)
	c.Telemetry = reg
	dsID, err := c.Upload(ctx, platform, sp.Train)
	if err != nil {
		return nil, fmt.Errorf("upload: %w", err)
	}
	modelID, err := c.Train(ctx, platform, dsID, cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	instances := tileInstances(sp.Test.X, batch)
	if _, err := c.Predict(ctx, platform, modelID, instances); err != nil {
		return nil, fmt.Errorf("warm-up predict: %w", err)
	}

	rep := &SaturationReport{}
	var rates []float64
	if spec == "auto" {
		capacity, err := measureCapacity(ctx, url, platform, modelID, instances, clients, codec, pointDur, reg)
		if err != nil {
			return nil, err
		}
		rep.CapacityRPS = capacity
		for _, m := range autoMultiples {
			rates = append(rates, m*capacity)
		}
	} else {
		for _, part := range strings.Split(spec, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || r <= 0 {
				return nil, fmt.Errorf("bad -saturate rate %q: want a positive req/s number or \"auto\"", part)
			}
			rates = append(rates, r)
		}
	}
	// The knee scan assumes ascending offered rates; explicit lists may
	// arrive in any order.
	sort.Float64s(rates)
	for _, rate := range rates {
		rep.Points = append(rep.Points, runOpenLoop(ctx, url, platform, modelID, instances, rate, codec, pointDur, reg))
	}
	rep.KneeRPS, rep.PeakGoodputRPS, rep.GoodputAt2xKneeRPS = analyzeSaturation(rep.Points)
	return rep, nil
}

// measureCapacity runs a short closed-loop burst — the same client loop as
// runPass — and returns its throughput, the anchor for auto sweep rates.
func measureCapacity(ctx context.Context, url, platform, modelID string, instances [][]float64, clients int, codec client.Codec, d time.Duration, reg *telemetry.Registry) (float64, error) {
	var (
		mu sync.Mutex
		n  int
	)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(url).WithCodec(codec)
			cl.Telemetry = reg
			local := 0
			for time.Now().Before(deadline) {
				if _, err := cl.Predict(ctx, platform, modelID, instances); err == nil {
					local++
				}
			}
			mu.Lock()
			n += local
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if n == 0 {
		return 0, fmt.Errorf("capacity probe made no successful requests in %s", d)
	}
	return float64(n) / elapsed, nil
}

// runOpenLoop offers arrivals at a fixed rate regardless of completions —
// the regime where an unprotected server past saturation collapses. Sheds
// are identified by status code and never retried (MaxRetries < 0), so the
// point measures the server's degradation policy, not the client's patience.
//
// Arrivals are paced on an absolute schedule (arrival i is due at
// start + i/rate) rather than a ticker: tickers coalesce missed ticks, so
// under CPU contention a ticker loop silently offers less than the nominal
// rate. Falling behind schedule here fires immediately and catches up —
// constant-throughput pacing, the wrk2 discipline.
//
// Rates divide by the offered window, and goodput counts only successes
// completing inside it: requests still draining after the last arrival
// would otherwise stretch the denominator and understate goodput.
//
// In-flight requests are capped (openLoopMaxInflight): past the cap an
// arrival is counted as a client-side drop instead of being sent. Without
// the cap, offered rates beyond what the client machine can generate turn
// into connection storms that overflow the listener's accept backlog — the
// measured collapse would then be the client's, not the server's.
func runOpenLoop(ctx context.Context, url, platform, modelID string, instances [][]float64, rate float64, codec client.Codec, d time.Duration, reg *telemetry.Registry) SaturationPoint {
	cl := client.New(url).WithCodec(codec)
	cl.Telemetry = reg
	cl.MaxRetries = -1 // open loop: a shed is a data point, not a retry

	interval := float64(time.Second) / rate
	var (
		mu        sync.Mutex
		latencies []float64
		good      int // successes completing inside the offered window
		late      int // successes completing after it (drain)
		dropped   int // arrivals refused at the in-flight cap
		shed      int
		errs      int
		byStatus  map[string]int
	)
	// Warm the connection pool before the window opens: the first arrivals
	// would otherwise all pay dials, depressing the point's goodput in a
	// way that has nothing to do with the offered rate.
	var warm sync.WaitGroup
	for i := 0; i < openLoopWarmup; i++ {
		warm.Add(1)
		go func() {
			defer warm.Done()
			_, _ = cl.Predict(ctx, platform, modelID, instances)
		}()
	}
	warm.Wait()

	inflight := make(chan struct{}, openLoopMaxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	fire := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inflight }()
			t0 := time.Now()
			_, err := cl.Predict(ctx, platform, modelID, instances)
			done := time.Now()
			ms := float64(done.Sub(t0).Microseconds()) / 1000
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil && done.Before(deadline):
				good++
				latencies = append(latencies, ms)
			case err == nil:
				late++
			case client.StatusCode(err) == http.StatusServiceUnavailable:
				shed++
				byStatus = countStatus(byStatus, err)
			default:
				errs++
				byStatus = countStatus(byStatus, err)
			}
		}()
	}
	// Arrivals due by the same wall-clock instant are handled as one batch:
	// at high offered rates a per-arrival sleep/iterate loop becomes a busy
	// loop that starves the server of the very CPU it is being measured on.
	issued := 0
	for {
		now := time.Now()
		if now.After(deadline) {
			break
		}
		due := int(float64(now.Sub(start)) / interval)
		for ; issued <= due; issued++ {
			select {
			case inflight <- struct{}{}:
				fire()
			default:
				dropped++
			}
		}
		next := start.Add(time.Duration(float64(issued) * interval))
		wait := time.Until(next)
		if wait < minPacingSleep {
			// Perpetually-behind rates must not degenerate into a busy
			// loop: on a small machine that would starve the server of the
			// CPU whose saturation is being measured. Due arrivals are
			// still handled (sent or dropped) in one batch per wake.
			wait = minPacingSleep
		}
		time.Sleep(wait)
	}
	wg.Wait()
	window := d.Seconds()
	sort.Float64s(latencies)
	return SaturationPoint{
		OfferedRPS:     rate,
		GoodputRPS:     float64(good) / window,
		ShedRPS:        float64(shed) / window,
		Requests:       good + late + shed + errs,
		Good:           good,
		Late:           late,
		Dropped:        dropped,
		Shed:           shed,
		Errors:         errs,
		DurationSec:    window,
		P95Ms:          quantile(latencies, 0.95),
		ErrorsByStatus: byStatus,
	}
}

// countStatus buckets one failed arrival by its HTTP status code; errors
// that never reached the server (dial/timeout/decode) land in "network".
// The map is allocated lazily so fully-successful points marshal without
// an errors_by_status key.
func countStatus(m map[string]int, err error) map[string]int {
	if m == nil {
		m = make(map[string]int)
	}
	if code := client.StatusCode(err); code != 0 {
		m[strconv.Itoa(code)]++
	} else {
		m["network"]++
	}
	return m
}

// openLoopMaxInflight bounds concurrent outstanding open-loop requests. It
// matches the client transport's idle-connection pool so a saturated point
// reuses warm connections instead of storming the listener with dials
// (whose accept-backlog queueing would be measured as server latency).
const openLoopMaxInflight = client.DefaultMaxIdleConnsPerHost

// openLoopWarmup is how many pool-warming predicts precede each measured
// open-loop window.
const openLoopWarmup = 32

// minPacingSleep floors the arrival-pacing sleep so overload never turns
// the generator into a busy loop; ≤5000 wakes/s, each handling every
// arrival due since the last.
const minPacingSleep = 200 * time.Microsecond

// analyzeSaturation locates the knee of the goodput curve: the smallest
// offered rate whose goodput reaches 95% of the sweep's peak goodput.
// Past the knee more offered load buys no more goodput — with admission
// control it should not cost any either, which goodputAt2x checks.
func analyzeSaturation(points []SaturationPoint) (knee, peak, goodputAt2x float64) {
	if len(points) == 0 {
		return 0, 0, 0
	}
	for _, p := range points {
		if p.GoodputRPS > peak {
			peak = p.GoodputRPS
		}
	}
	for _, p := range points {
		if p.GoodputRPS >= 0.95*peak {
			knee = p.OfferedRPS
			break
		}
	}
	for _, p := range points {
		if p.OfferedRPS >= 2*knee-1e-9 {
			goodputAt2x = p.GoodputRPS
			break
		}
	}
	return knee, peak, goodputAt2x
}
