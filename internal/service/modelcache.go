package service

import (
	"container/list"
	"errors"
	"sync"
	"time"

	"mlaasbench/internal/platforms"
	"mlaasbench/internal/store"
	"mlaasbench/internal/telemetry"
)

// DefaultModelCacheModels bounds the fitted-model LRU when the server is
// constructed. Fitted models at this repo's scale are small (weights, tree
// nodes, binner edges — kilobytes to a few megabytes each), so the default
// comfortably covers a busy multi-tenant mix while keeping worst-case
// memory proportional to the bound, never to request history.
const DefaultModelCacheModels = 128

// modelCache is the fitted-model store behind the serving path: a bounded
// LRU keyed by the (platform, dataset, config, seed) model identity, with
// singleflight dedup so concurrent identical requests share one fit instead
// of training the same model in parallel, and an optional disk tier
// (internal/store) beneath the LRU: fitted models are persisted as MLMF
// artifacts, evicted models are demoted to disk instead of dropped, and a
// fill checks the disk tier before paying for a fit.
//
// Correctness never depends on cache state. The stored model *description*
// remains the durable identity (the training substrate is deterministic, so
// the same key always refits to the same model, and a disk artifact decodes
// to a model that predicts byte-identically); the cache only removes
// redundant fitting. An evicted model transparently reloads or refits on its
// next use, and a capacity of zero disables residency entirely — every
// request refits, which is exactly the pre-cache behaviour.
type modelCache struct {
	// reg is read per operation rather than captured at construction so the
	// cache follows Server.WithRegistry redirection.
	reg func() *telemetry.Registry

	// store is the optional disk tier; nil keeps the cache RAM-only.
	// Set before serving starts, read-only afterwards.
	store *store.Store

	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*fitCall
}

// cacheItem is one resident model; the key is kept for map cleanup when the
// LRU tail is dropped.
type cacheItem struct {
	key   string
	model platforms.FittedModel
}

// fitCall is one in-flight fill. Followers block on done and share the
// result; model, refit and err are written before done closes and read only
// after.
type fitCall struct {
	done  chan struct{}
	model platforms.FittedModel
	refit bool
	err   error
}

func newModelCache(capacity int, reg func() *telemetry.Registry) *modelCache {
	return &modelCache{
		reg:      reg,
		capacity: capacity,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		inflight: map[string]*fitCall{},
	}
}

// setCapacity rebounds the LRU, evicting immediately if it shrank. Zero (or
// negative) disables caching: every get runs its own fit.
func (c *modelCache) setCapacity(n int) {
	c.mu.Lock()
	c.capacity = n
	demoted := c.evictLocked()
	c.mu.Unlock()
	c.demote(demoted)
}

// evictLocked drops LRU tails until the cache fits its capacity, returning
// the dropped items so the caller can demote them to the disk tier outside
// the lock (artifact encoding must not serialize the serving path).
func (c *modelCache) evictLocked() []*cacheItem {
	var demoted []*cacheItem
	for c.ll.Len() > c.capacity && c.ll.Len() > 0 {
		back := c.ll.Back()
		c.ll.Remove(back)
		item := back.Value.(*cacheItem)
		delete(c.items, item.key)
		c.reg().Counter(telemetry.ModelCacheEvictions).Inc()
		if c.store != nil {
			demoted = append(demoted, item)
		}
	}
	return demoted
}

// demote hands evicted models to the disk tier. Artifacts are deterministic
// per key and writes are atomic, so if write-through already persisted the
// key (the common case) the existing artifact satisfies the demotion.
func (c *modelCache) demote(items []*cacheItem) {
	for _, item := range items {
		if err := c.store.PutModel(item.key, item.model); err == nil {
			c.reg().Counter(telemetry.StoreDemotions).Inc()
		}
	}
}

// get returns the fitted model for key, running the fill at most once
// across concurrent callers of the same key. A fill tries the disk tier
// first (load, no fit) and falls back to fit, persisting the result. refit
// reports whether the caller's latency includes a model fit — a miss that
// actually fitted, or a coalesced wait on one — rather than a cache hit or
// an artifact load; failed fits are never cached, so errors retry
// naturally.
func (c *modelCache) get(key string, fit func() (platforms.FittedModel, error)) (m platforms.FittedModel, refit bool, err error) {
	c.mu.Lock()
	if c.capacity <= 0 {
		c.mu.Unlock()
		m, err := fit()
		return m, true, err
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		m := el.Value.(*cacheItem).model
		c.mu.Unlock()
		c.reg().Counter(telemetry.ModelCacheHits).Inc()
		return m, false, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.reg().Counter(telemetry.ModelCacheCoalesced).Inc()
		<-call.done
		return call.model, call.refit, call.err
	}
	call := &fitCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	c.fill(key, call, fit)

	c.mu.Lock()
	delete(c.inflight, key)
	var demoted []*cacheItem
	if call.err == nil && c.capacity > 0 {
		if el, ok := c.items[key]; ok {
			// A concurrent warm scan inserted this key while the fill was in
			// flight; keep that copy (artifacts are deterministic, the models
			// are identical) rather than pushing a duplicate element.
			c.ll.MoveToFront(el)
		} else {
			c.items[key] = c.ll.PushFront(&cacheItem{key: key, model: call.model})
		}
		demoted = c.evictLocked()
	}
	close(call.done)
	c.mu.Unlock()
	c.demote(demoted)
	return call.model, call.refit, call.err
}

// fill resolves a key that is neither resident nor in flight: disk tier
// first, then fit. ModelCacheMisses counts only fills that actually ran a
// fit, so a warmed or demoted key re-hits with a miss count of zero.
func (c *modelCache) fill(key string, call *fitCall, fit func() (platforms.FittedModel, error)) {
	if c.store != nil {
		start := time.Now()
		if m, ok, err := c.store.GetModel(key); err == nil && ok {
			c.reg().Counter(telemetry.StoreHits).Inc()
			c.reg().Histogram(telemetry.StoreLoadHistogram, "op", "hit").
				Observe(time.Since(start).Seconds())
			call.model, call.refit = m, false
			return
		}
		// Missing or unreadable artifact: either way the fit below
		// re-creates it, so corruption degrades to a refit, never an error.
		c.reg().Counter(telemetry.StoreMisses).Inc()
	}
	c.reg().Counter(telemetry.ModelCacheMisses).Inc()
	call.model, call.err = fit()
	call.refit = true
	if call.err == nil && c.store != nil {
		// Write-through: persisting at fit time (not just at eviction)
		// makes every fitted model durable, so a restarted replica can warm
		// its cache even if this process never evicted anything.
		_ = c.store.PutModel(key, call.model)
	}
}

// errWarmDone stops the warm scan once the cache is full.
var errWarmDone = errors.New("service: warm capacity reached")

// warm fills the cache from the disk tier up to capacity, returning how
// many models were loaded and the artifacts it skipped as undecodable.
// Runs at boot before serving starts.
func (c *modelCache) warm() (int, []error, error) {
	if c.store == nil {
		return 0, nil, nil
	}
	n := 0
	skipped, err := c.store.Models(func(key string, m platforms.FittedModel, load time.Duration) error {
		c.mu.Lock()
		if c.capacity <= 0 || c.ll.Len() >= c.capacity {
			c.mu.Unlock()
			return errWarmDone
		}
		if _, ok := c.items[key]; ok {
			c.mu.Unlock()
			return nil
		}
		c.items[key] = c.ll.PushFront(&cacheItem{key: key, model: m})
		c.mu.Unlock()
		n++
		c.reg().Counter(telemetry.StoreWarmLoads).Inc()
		c.reg().Histogram(telemetry.StoreLoadHistogram, "op", "warm").
			Observe(load.Seconds())
		return nil
	})
	c.reg().Counter(telemetry.StoreSkipped).Add(int64(len(skipped)))
	if errors.Is(err, errWarmDone) {
		err = nil
	}
	return n, skipped, err
}

// size reports how many fitted models are resident.
func (c *modelCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
