package pipeline

import (
	"context"
	"sync"

	"mlaasbench/internal/classifiers"
	"mlaasbench/internal/dataset"
	"mlaasbench/internal/telemetry"
)

// FeatCache memoizes the views of one training set that every fit on it
// derives the same way: each FEAT option's fitted transform and transformed
// matrix, and that matrix's column presort for the tree learners. The sweep
// measures |classifiers| × |grid| configurations per FEAT option, and
// without a cache every one of them re-fits the same scaler, filter score or
// Fisher-LDA projection and re-sorts the same columns. A FeatCache computes
// each view once and shares it read-only across configs — including across
// platforms measuring the same split, since a view depends only on the
// option and the data.
//
// The cache is safe for concurrent use: when several workers ask for the
// same option at once, exactly one fits and the rest block until the result
// is ready (singleflight semantics via a per-entry sync.Once). The cached
// matrices must therefore be treated as immutable, which every classifier in
// this repo already guarantees (Fit/Predict never write to their inputs).
//
// A FeatCache is scoped to exactly one training set, and for Run to one
// test set with it: the sweep keeps one per split, the service one per
// uploaded dataset. Handing the same cache different data is a programming
// error and will silently return the first data's views. A nil *FeatCache
// is valid and caches nothing: every call computes afresh, with identical
// results.
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

// featView is one FEAT option fitted on the cache's training set: the
// fitted transform, the transformed training matrix and its column presort
// (built by the first tree fit that asks), and the transformed test matrix
// once a Run has needed it.
type featView struct {
	t      *FittedTransform
	xTr    [][]float64
	pre    *classifiers.Presort
	teOnce sync.Once
	xTe    [][]float64
}

// NewFeatCache returns an empty cache for one training set.
func NewFeatCache() *FeatCache {
	return &FeatCache{entries: map[string]*cacheEntry{}}
}

// entry returns (creating if needed) the memo slot for key.
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

// view returns f's view of train, fitting the transform at most once. A
// non-nil test is transformed by the fitting goroutine too, so a split's
// FEAT work stays in one measurement's trace. The fitting goroutine's
// featsel/preprocess stages land in ctx's trace, and hit/miss counters go
// to ctx's registry (Default when absent). The "none" option is memoized
// for its presort but never counted — it has nothing to fit — so the
// counters mean what they always have. Coalesced waiters record a hit but
// no stage time: they did no fitting work.
func (c *FeatCache) view(ctx context.Context, f Feat, train, test *dataset.Dataset) (*featView, error) {
	fit := func() (*featView, error) {
		t, xTr, err := FitFeatCtx(ctx, f, train)
		if err != nil {
			return nil, err
		}
		v := &featView{t: t, xTr: xTr, pre: classifiers.NewPresort(xTr)}
		if test != nil {
			v.test(ctx, test)
		}
		return v, nil
	}
	if c == nil {
		return fit()
	}
	e := c.entry("feat/" + f.String())
	fitted := false
	e.once.Do(func() {
		fitted = true
		e.val, e.err = fit()
	})
	if f.Kind != "" && f.Kind != "none" {
		reg := telemetry.RegistryFrom(ctx)
		if fitted {
			reg.Counter(telemetry.FeatCacheMisses, "kind", f.Kind).Inc()
		} else {
			reg.Counter(telemetry.FeatCacheHits, "kind", f.Kind).Inc()
		}
	}
	if e.err != nil {
		return nil, e.err
	}
	return e.val.(*featView), nil
}

// test returns the transformed test matrix, applying the fitted transform
// to test at most once per view.
func (v *featView) test(ctx context.Context, test *dataset.Dataset) [][]float64 {
	v.teOnce.Do(func() { v.xTe = v.t.ApplyCtx(ctx, test.X) })
	return v.xTe
}
