package classifiers

import "sync"

// maxPooledScratch caps, in float64s, the work buffers the pool keeps
// (4 MiB): kNN's tile is knnQueryBlock × n_train, so an unusually large
// training set gets a per-call buffer instead of pinning one per P.
const maxPooledScratch = 1 << 19

// scratchPool recycles the per-call work buffers of the batched forward
// passes — kNN's distance tile, MLP's input and pre-activation blocks —
// which would otherwise be the largest allocation of a served predict
// (410 KB per shard per call for kNN over 1 600 training rows). Shards of
// one request and concurrent requests each draw their own buffer.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// getScratch returns a pooled buffer of length n with unspecified
// contents: the kernels that fill it (SquaredEuclideanBatch, MulTransBInto,
// row copies) write every cell before it is read. Return it with putScratch.
func getScratch(n int) *[]float64 {
	sp := scratchPool.Get().(*[]float64)
	if cap(*sp) < n {
		*sp = make([]float64, n)
	}
	*sp = (*sp)[:n]
	return sp
}

func putScratch(sp *[]float64) {
	if cap(*sp) <= maxPooledScratch {
		scratchPool.Put(sp)
	}
}
