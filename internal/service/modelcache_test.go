package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlaasbench/internal/platforms"
	"mlaasbench/internal/telemetry"
)

// stubModel is a FittedModel that remembers which fit produced it.
type stubModel struct{ id int }

func (m *stubModel) Predict(points [][]float64) []int { return make([]int, len(points)) }

func (m *stubModel) PredictCtx(_ context.Context, points [][]float64) []int { return m.Predict(points) }

func testCache(capacity int) (*modelCache, *telemetry.Registry) {
	reg := telemetry.NewRegistry()
	return newModelCache(capacity, func() *telemetry.Registry { return reg }), reg
}

func counter(reg *telemetry.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

func TestModelCacheHitServesResidentModel(t *testing.T) {
	c, reg := testCache(4)
	fits := 0
	fit := func() (platforms.FittedModel, error) { fits++; return &stubModel{id: fits}, nil }

	m1, refit, err := c.get("k", fit)
	if err != nil || !refit {
		t.Fatalf("first get: refit=%v err=%v", refit, err)
	}
	m2, refit, err := c.get("k", fit)
	if err != nil || refit {
		t.Fatalf("second get: refit=%v err=%v", refit, err)
	}
	if m1 != m2 || fits != 1 {
		t.Fatalf("resident model not reused: %d fits", fits)
	}
	if h, m := counter(reg, telemetry.ModelCacheHits), counter(reg, telemetry.ModelCacheMisses); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
}

func TestModelCacheLRUEvictionOrder(t *testing.T) {
	c, reg := testCache(2)
	fit := func(id int) func() (platforms.FittedModel, error) {
		return func() (platforms.FittedModel, error) { return &stubModel{id: id}, nil }
	}
	if _, _, err := c.get("a", fit(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.get("b", fit(2)); err != nil {
		t.Fatal(err)
	}
	// Touch "a" so "b" becomes the LRU tail, then overflow.
	if _, refit, _ := c.get("a", fit(0)); refit {
		t.Fatal("touching a resident model must not refit")
	}
	if _, _, err := c.get("c", fit(3)); err != nil {
		t.Fatal(err)
	}
	if ev := counter(reg, telemetry.ModelCacheEvictions); ev != 1 {
		t.Fatalf("evictions=%d, want 1", ev)
	}
	if c.size() != 2 {
		t.Fatalf("size=%d, want 2", c.size())
	}
	// "a" survived, "b" was evicted and transparently refits.
	if _, refit, _ := c.get("a", fit(0)); refit {
		t.Fatal("a should still be resident")
	}
	if _, refit, _ := c.get("b", fit(4)); !refit {
		t.Fatal("evicted b must refit")
	}
}

func TestModelCacheZeroCapacityAlwaysRefits(t *testing.T) {
	c, reg := testCache(0)
	fits := 0
	fit := func() (platforms.FittedModel, error) { fits++; return &stubModel{id: fits}, nil }
	for i := 0; i < 3; i++ {
		if _, refit, err := c.get("k", fit); err != nil || !refit {
			t.Fatalf("get %d: refit=%v err=%v", i, refit, err)
		}
	}
	if fits != 3 || c.size() != 0 {
		t.Fatalf("fits=%d size=%d, want 3/0 with the cache disabled", fits, c.size())
	}
	if h := counter(reg, telemetry.ModelCacheHits); h != 0 {
		t.Fatalf("hits=%d with the cache disabled", h)
	}
}

func TestModelCacheErrorsAreNotCached(t *testing.T) {
	c, _ := testCache(4)
	calls := 0
	fit := func() (platforms.FittedModel, error) {
		calls++
		if calls == 1 {
			return nil, errFirst
		}
		return &stubModel{}, nil
	}
	if _, _, err := c.get("k", fit); err == nil {
		t.Fatal("first fit must fail")
	}
	if m, _, err := c.get("k", fit); err != nil || m == nil {
		t.Fatalf("retry after failed fit: %v", err)
	}
	if calls != 2 {
		t.Fatalf("calls=%d, want 2 (error retried, success cached)", calls)
	}
}

var errFirst = &trainError{"transient"}

type trainError struct{ msg string }

func (e *trainError) Error() string { return e.msg }

// TestModelCacheSingleflightCoalesces proves the dedup deterministically:
// one fit blocks while followers for the same key arrive; every follower is
// counted as coalesced, waits, and shares the single fitted model.
func TestModelCacheSingleflightCoalesces(t *testing.T) {
	c, reg := testCache(4)
	const followers = 5

	block := make(chan struct{})
	started := make(chan struct{})
	var fits atomic.Int32
	leaderModel := &stubModel{id: 99}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m, refit, err := c.get("k", func() (platforms.FittedModel, error) {
			fits.Add(1)
			close(started)
			<-block
			return leaderModel, nil
		})
		if err != nil || !refit || m != leaderModel {
			t.Errorf("leader: m=%v refit=%v err=%v", m, refit, err)
		}
	}()
	<-started

	results := make(chan platforms.FittedModel, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, refit, err := c.get("k", func() (platforms.FittedModel, error) {
				fits.Add(1)
				return &stubModel{}, nil
			})
			if err != nil || !refit {
				t.Errorf("follower: refit=%v err=%v", refit, err)
			}
			results <- m
		}()
	}
	// Wait until every follower has registered against the in-flight fit,
	// then release the leader.
	deadline := time.Now().Add(5 * time.Second)
	for counter(reg, telemetry.ModelCacheCoalesced) < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d coalesced after 5s", counter(reg, telemetry.ModelCacheCoalesced))
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	close(results)

	for m := range results {
		if m != leaderModel {
			t.Fatal("follower received a different model than the leader fitted")
		}
	}
	if got := fits.Load(); got != 1 {
		t.Fatalf("%d fits ran, want 1", got)
	}
	if co, mi := counter(reg, telemetry.ModelCacheCoalesced), counter(reg, telemetry.ModelCacheMisses); co != followers || mi != 1 {
		t.Fatalf("coalesced=%d misses=%d, want %d/1", co, mi, followers)
	}
}
