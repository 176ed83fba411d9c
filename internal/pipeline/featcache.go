package pipeline

import (
	"context"
	"sync"

	"mlaasbench/internal/dataset"
	"mlaasbench/internal/telemetry"
)

// FeatCache memoizes fitted FEAT transforms for one train/test split. The
// sweep measures |classifiers| × |grid| configurations per FEAT option, and
// without a cache every one of them re-fits the same scaler, filter score or
// Fisher-LDA projection on the same training matrix. A FeatCache fits each
// option once and shares the transformed matrices read-only across configs —
// including across platforms measuring the same split, since a FEAT option's
// output depends only on the option and the split.
//
// The cache is safe for concurrent use: when several workers ask for the
// same option at once, exactly one fits and the rest block until the result
// is ready (singleflight semantics via a per-entry sync.Once). The cached
// matrices must therefore be treated as immutable, which every classifier in
// this repo already guarantees (Fit/Predict never write to their inputs).
//
// A FeatCache is scoped to exactly one split. Handing the same cache two
// different splits is a programming error and will silently return the first
// split's transforms. A nil *FeatCache is valid and caches nothing: every
// call computes afresh, with identical results.
type FeatCache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

// cacheEntry is one memoized computation. once gates the fit; val/err are
// written inside once.Do and read only after it returns, so no further
// synchronization is needed.
type cacheEntry struct {
	once sync.Once
	val  any
	err  error
}

// featXY is the cached value of a FEAT transform: the train and test
// matrices after fitting on train.
type featXY struct {
	xTr, xTe [][]float64
}

// NewFeatCache returns an empty cache for one train/test split.
func NewFeatCache() *FeatCache {
	return &FeatCache{entries: map[string]*cacheEntry{}}
}

// entry returns (creating if needed) the memo slot for key and whether the
// slot already existed.
func (c *FeatCache) entry(key string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	return e
}

// Memo returns the value computed for key, running compute at most once per
// cache lifetime. Concurrent callers with the same key block until the one
// executing compute finishes. Platforms use this for hidden per-split
// preprocessing that is not a FEAT option (Amazon's quantile binning).
func (c *FeatCache) Memo(key string, compute func() (any, error)) (any, error) {
	if c == nil {
		return compute()
	}
	e := c.entry(key)
	e.once.Do(func() { e.val, e.err = compute() })
	return e.val, e.err
}

// Transform returns the FEAT-transformed train/test matrices for f, fitting
// the transform at most once. The "none" option bypasses the cache — it has
// nothing to fit and its matrices are the split's own. The fitting
// goroutine's featsel/preprocess stage lands in ctx's trace, and hit/miss
// counters go to ctx's registry (Default when absent). Coalesced waiters
// record a hit but no stage time — they did no fitting work.
func (c *FeatCache) Transform(ctx context.Context, f Feat, train, test *dataset.Dataset) (xTr, xTe [][]float64, err error) {
	if f.Kind == "" || f.Kind == "none" {
		return train.X, test.X, nil
	}
	if c == nil {
		return applyFeat(ctx, f, train, test)
	}
	e := c.entry("feat/" + f.String())
	fitted := false
	e.once.Do(func() {
		fitted = true
		var v featXY
		v.xTr, v.xTe, e.err = applyFeat(ctx, f, train, test)
		e.val = v
	})
	reg := telemetry.RegistryFrom(ctx)
	if fitted {
		reg.Counter(telemetry.FeatCacheMisses, "kind", f.Kind).Inc()
	} else {
		reg.Counter(telemetry.FeatCacheHits, "kind", f.Kind).Inc()
	}
	if e.err != nil {
		return nil, nil, e.err
	}
	v := e.val.(featXY)
	return v.xTr, v.xTe, nil
}
