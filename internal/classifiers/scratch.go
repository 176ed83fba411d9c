package classifiers

import "sync"

// maxPooledScratch caps, in float64s, the work buffers the pool keeps
// (4 MiB): a larger request gets a per-call buffer instead of pinning one
// per P.
const maxPooledScratch = 1 << 19

// scratchPool recycles the per-call work buffers of the batched forward
// passes — MLP's input and pre-activation blocks — which would otherwise be
// the largest allocation of a served predict. Shards of one request and
// concurrent requests each draw their own buffer.
var scratchPool = sync.Pool{New: func() any { return new([]float64) }}

// getScratch returns a pooled buffer of length n with unspecified
// contents: the kernels that fill it (MulTransBInto, row copies) write
// every cell before it is read. Return it with putScratch.
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

// knnScratch is the work state of one Euclidean kNN predict: a bounded heap
// per query of a block, carved from two flat backings, and the survivor
// (distance, row) cells SquaredEuclideanPruned fills for one training tile,
// plus a query's distance to each cluster centre and the order it visits
// the clusters in. Its size follows k and the fixed block, tile and index
// shapes, not the training set or the batch.
type knnScratch struct {
	heaps              []kHeap
	hdist, dist, cdist []float64
	hidx, idx, corder  []int
}

var knnScratchPool = sync.Pool{New: func() any {
	return &knnScratch{dist: make([]float64, knnTile), idx: make([]int, knnTile),
		cdist: make([]float64, knnCentres), corder: make([]int, knnCentres)}
}}

// getKNNScratch returns pooled scratch holding `queries` empty heaps of
// capacity k. Return it with putKNNScratch.
func getKNNScratch(queries, k int) *knnScratch {
	s := knnScratchPool.Get().(*knnScratch)
	if cap(s.heaps) < queries {
		s.heaps = make([]kHeap, queries)
	}
	if cap(s.hdist) < queries*k {
		s.hdist = make([]float64, queries*k)
		s.hidx = make([]int, queries*k)
	}
	s.heaps = s.heaps[:queries]
	for i := range s.heaps {
		s.heaps[i] = kHeap{k: k, dist: s.hdist[i*k : i*k : (i+1)*k], idx: s.hidx[i*k : i*k : (i+1)*k]}
	}
	return s
}

// putKNNScratch keeps the scratch for the next call unless an unusually
// large k grew its heaps past what the pool should pin per P.
func putKNNScratch(s *knnScratch) {
	if cap(s.hdist) <= maxPooledScratch {
		knnScratchPool.Put(s)
	}
}

// maxPooledFitBytes caps the growth memory the fit pools keep per mem
// (4 MiB): a fit on a larger matrix leaves its mem to the collector instead
// of pinning it per P.
const maxPooledFitBytes = 4 << 20

// treeMemPool and dagMemPool recycle the growth memory of tree-family fits
// (treeMem, dagMem), so a fit allocates only the model it returns. A fit
// takes one mem and returns it on a normal return only, never through a
// defer: a fit that panics may leave treeMem.counts non-zero, and its mem
// is dropped.
var (
	treeMemPool = sync.Pool{New: func() any { return new(treeMem) }}
	dagMemPool  = sync.Pool{New: func() any { return new(dagMem) }}
)

func getTreeMem() *treeMem { return treeMemPool.Get().(*treeMem) }

// bytes is the memory m holds, the size putTreeMem caps.
func (m *treeMem) bytes() int {
	return 8*(cap(m.counts)+cap(m.cand)+cap(m.thr)+cap(m.boot)+cap(m.target)+cap(m.score)) +
		4*(cap(m.ordersBuf)+cap(m.scratch)+cap(m.own)) + cap(m.side)
}

func putTreeMem(m *treeMem) {
	if m.bytes() <= maxPooledFitBytes {
		treeMemPool.Put(m)
	}
}

func getDagMem() *dagMem { return dagMemPool.Get().(*dagMem) }

// bytes is the memory m holds, the size putDagMem caps.
func (m *dagMem) bytes() int {
	return m.treeMem.bytes() +
		8*(cap(m.below)+cap(m.posBelow)+cap(m.children)+cap(m.merged)+cap(m.members)) +
		24*(cap(m.cur)+cap(m.nxt)+cap(m.levels)) + 16*cap(m.rates)
}

func putDagMem(m *dagMem) {
	if m.bytes() <= maxPooledFitBytes {
		dagMemPool.Put(m)
	}
}
