package service

import (
	"sync"
	"sync/atomic"
	"testing"

	"mlaasbench/internal/platforms"
	"mlaasbench/internal/rng"
	"mlaasbench/internal/store"
	"mlaasbench/internal/synth"
	"mlaasbench/internal/telemetry"
)

// storeFixture builds a cache with a disk tier plus a set of distinct real
// models (one per key, varying the fit seed) and their oracle predictions.
type storeFixture struct {
	cache  *modelCache
	reg    *telemetry.Registry
	store  *store.Store
	keys   []string
	fit    map[string]func() (platforms.FittedModel, error)
	oracle map[string][]int
	points [][]float64
}

func newStoreFixture(t *testing.T, capacity, nKeys int) *storeFixture {
	t.Helper()
	full := synth.GenerateClean(synth.Spec{Name: "store-cache", Gen: synth.GenClusters, N: 70, D: 4, Noise: 0.3}, synth.Quick, 3)
	sp := full.StratifiedSplit(0.7, rng.New(2))
	train, points := sp.Train, sp.Test.X

	p, err := platforms.New("local")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := p.Surface().DefaultConfig("randomforest")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Params["n_estimators"] = 4

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache, reg := testCache(capacity)
	cache.store = st

	fx := &storeFixture{
		cache: cache, reg: reg, store: st, points: points,
		fit:    map[string]func() (platforms.FittedModel, error){},
		oracle: map[string][]int{},
	}
	enc, err := store.EncodeDataset(train)
	if err != nil {
		t.Fatal(err)
	}
	dsID := contentID("ds-", enc)
	for i := 0; i < nKeys; i++ {
		seed := uint64(i + 1)
		key := modelKey("local", dsID, cfg, seed)
		fx.keys = append(fx.keys, key)
		fx.fit[key] = func() (platforms.FittedModel, error) { return p.Fit(cfg, train, seed) }
		m, err := p.Fit(cfg, train, seed)
		if err != nil {
			t.Fatal(err)
		}
		fx.oracle[key] = m.Predict(points)
	}
	return fx
}

func (fx *storeFixture) check(t *testing.T, ctx, key string, m platforms.FittedModel) {
	t.Helper()
	got, want := m.Predict(fx.points), fx.oracle[key]
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: %s label %d is %d, want %d", ctx, key, i, got[i], want[i])
		}
	}
}

// TestStoreDemoteThenRehitByteIdentical: cap the LRU at one, fit two keys
// so the first demotes to disk, then re-request it. The rehit must load the
// artifact (no fit, no model-cache miss) and predict byte-identically.
func TestStoreDemoteThenRehitByteIdentical(t *testing.T) {
	fx := newStoreFixture(t, 1, 2)
	a, b := fx.keys[0], fx.keys[1]
	fitsA := 0
	countedFitA := func() (platforms.FittedModel, error) { fitsA++; return fx.fit[a]() }

	m, refit, err := fx.cache.get(a, countedFitA)
	if err != nil || !refit {
		t.Fatalf("first get(a): refit=%v err=%v", refit, err)
	}
	fx.check(t, "first fill", a, m)
	if _, _, err := fx.cache.get(b, fx.fit[b]); err != nil {
		t.Fatal(err)
	}
	if !fx.store.Has(a) {
		t.Fatal("evicted model was not demoted to disk")
	}

	missesBefore := counter(fx.reg, telemetry.ModelCacheMisses)
	m, refit, err = fx.cache.get(a, countedFitA)
	if err != nil {
		t.Fatal(err)
	}
	if refit {
		t.Fatal("rehit of a demoted key reported a refit")
	}
	if fitsA != 1 {
		t.Fatalf("fit ran %d times for key a, want 1 (second resolve must load from disk)", fitsA)
	}
	fx.check(t, "disk rehit", a, m)
	if got := counter(fx.reg, telemetry.ModelCacheMisses); got != missesBefore {
		t.Fatalf("disk rehit counted as model-cache miss (%d → %d)", missesBefore, got)
	}
	if counter(fx.reg, telemetry.StoreHits) < 1 {
		t.Fatal("no store hit recorded")
	}
	if counter(fx.reg, telemetry.ModelCacheEvictions) < 1 {
		t.Fatal("no eviction recorded")
	}
}

// TestWarmFromStoreServesWithoutFit: artifacts on disk, a fresh cache, one
// warm scan — every warmed key must then serve as a plain cache hit whose
// fit callback never runs.
func TestWarmFromStoreServesWithoutFit(t *testing.T) {
	fx := newStoreFixture(t, 8, 3)
	for _, key := range fx.keys {
		m, err := fx.fit[key]()
		if err != nil {
			t.Fatal(err)
		}
		if err := fx.store.PutModel(key, m); err != nil {
			t.Fatal(err)
		}
	}
	fresh, reg := testCache(8)
	fresh.store = fx.store
	n, _, err := fresh.warm()
	if err != nil {
		t.Fatal(err)
	}
	if n != len(fx.keys) {
		t.Fatalf("warmed %d models, want %d", n, len(fx.keys))
	}
	if counter(reg, telemetry.StoreWarmLoads) != int64(n) {
		t.Fatalf("warm loads counter %d, want %d", counter(reg, telemetry.StoreWarmLoads), n)
	}
	for _, key := range fx.keys {
		m, refit, err := fresh.get(key, func() (platforms.FittedModel, error) {
			t.Fatalf("fit ran for warmed key %s", key)
			return nil, nil
		})
		if err != nil || refit {
			t.Fatalf("get(%s): refit=%v err=%v", key, refit, err)
		}
		fx.check(t, "warmed", key, m)
	}
	if counter(reg, telemetry.ModelCacheMisses) != 0 {
		t.Fatalf("warmed keys produced %d model-cache misses, want 0", counter(reg, telemetry.ModelCacheMisses))
	}
}

// TestWarmFromStoreRespectsCapacity: the warm scan stops at the LRU bound.
func TestWarmFromStoreRespectsCapacity(t *testing.T) {
	fx := newStoreFixture(t, 8, 3)
	for _, key := range fx.keys {
		m, err := fx.fit[key]()
		if err != nil {
			t.Fatal(err)
		}
		if err := fx.store.PutModel(key, m); err != nil {
			t.Fatal(err)
		}
	}
	small, _ := testCache(2)
	small.store = fx.store
	n, _, err := small.warm()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || small.size() != 2 {
		t.Fatalf("warmed %d resident %d, want 2/2", n, small.size())
	}
}

// TestConcurrentEvictDemoteWarmRefit is the satellite race check: a tiny
// LRU over more keys than fit, hammered from many goroutines while warm
// scans run concurrently. Invariants: no data race (run under -race via
// make race), at most one fit in flight per key, at most one fit *ever*
// per key (write-through means every later resolve loads the artifact),
// and every returned model predicts byte-identically to the oracle.
func TestConcurrentEvictDemoteWarmRefit(t *testing.T) {
	const (
		capacity   = 2
		nKeys      = 4
		goroutines = 8
		iters      = 20
	)
	fx := newStoreFixture(t, capacity, nKeys)
	inflight := make([]atomic.Int32, nKeys)
	everFit := make([]atomic.Int32, nKeys)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ki := (g + i) % nKeys
				key := fx.keys[ki]
				m, _, err := fx.cache.get(key, func() (platforms.FittedModel, error) {
					if inflight[ki].Add(1) != 1 {
						t.Errorf("double in-flight fit for %s", key)
					}
					defer inflight[ki].Add(-1)
					everFit[ki].Add(1)
					return fx.fit[key]()
				})
				if err != nil {
					t.Errorf("get(%s): %v", key, err)
					return
				}
				fx.check(t, "concurrent", key, m)
			}
		}(g)
	}
	// Warm scans race the gets: insertion vs fill vs eviction on live keys.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := fx.cache.warm(); err != nil {
				t.Errorf("warm: %v", err)
			}
		}()
	}
	wg.Wait()
	for ki := range everFit {
		if n := everFit[ki].Load(); n > 1 {
			t.Errorf("key %s fitted %d times; artifact should have served every resolve after the first", fx.keys[ki], n)
		}
	}
	// After the dust settles the cache must still be internally consistent:
	// bounded residency and every key still resolvable and correct.
	if fx.cache.size() > capacity {
		t.Fatalf("resident %d models with capacity %d", fx.cache.size(), capacity)
	}
	for _, key := range fx.keys {
		m, _, err := fx.cache.get(key, fx.fit[key])
		if err != nil {
			t.Fatal(err)
		}
		fx.check(t, "settled", key, m)
	}
}
