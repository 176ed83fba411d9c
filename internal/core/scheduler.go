package core

import (
	"context"
	"sync"
)

// pool bounds the sweep's concurrency. Every leaf unit of work — one dataset
// generation, one batch of configurations — runs inside a slot acquired from
// the pool, so `Workers` is a hard cap on simultaneous CPU-bound work no
// matter how the sweep fans out. Coordinator goroutines (one per dataset,
// one per unit) never hold a slot while waiting on children, which keeps the
// design deadlock-free under nested fan-out.
//
// The first error cancels the pool's context; later failures are dropped.
type pool struct {
	ctx    context.Context
	cancel context.CancelFunc
	slots  chan struct{}

	errOnce sync.Once
	err     error
}

func newPool(ctx context.Context, workers int) *pool {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	return &pool{ctx: ctx, cancel: cancel, slots: make(chan struct{}, workers)}
}

// acquire blocks until a slot is free and returns true, or returns false
// when the pool is cancelled first (recording the cancellation as the pool
// error if nothing failed earlier).
func (p *pool) acquire() bool {
	select {
	case p.slots <- struct{}{}:
	case <-p.ctx.Done():
		p.fail(p.ctx.Err())
		return false
	}
	if p.ctx.Err() != nil {
		<-p.slots
		p.fail(p.ctx.Err())
		return false
	}
	return true
}

// release returns a slot acquired with acquire.
func (p *pool) release() {
	<-p.slots
}

// fail records err as the pool's outcome (first failure wins) and cancels
// all outstanding work.
func (p *pool) fail(err error) {
	if err == nil {
		return
	}
	p.errOnce.Do(func() { p.err = err })
	p.cancel()
}

// done tears the pool down and returns the first recorded error. Call only
// after every worker goroutine has finished.
func (p *pool) done() error {
	p.cancel()
	return p.err
}
