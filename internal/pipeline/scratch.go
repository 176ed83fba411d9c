package pipeline

import (
	"sync"

	"mlaasbench/internal/preprocess"
)

// maxPooledScratchBytes caps the scratch PutScratch keeps (4 MiB, the
// figure of the store's artifact buffers and the fit pools): a larger batch
// leaves its scratch to the collector instead of pinning it per P.
const maxPooledScratchBytes = 4 << 20

// scratchPool recycles the destinations of the FEAT transforms on the
// predict path, so a forward pass allocates its labels and not a copy of
// its input. Each call, and each shard of a sharded predict, borrows its
// own.
var scratchPool = sync.Pool{New: func() any { return new(preprocess.Scratch) }}

// GetScratch borrows a scratch for preprocess.TransformInto. Return it with
// PutScratch once nothing reads the rows carved from it, on a normal return
// only and never through a defer: a call that panics leaves its scratch to
// the collector.
func GetScratch() *preprocess.Scratch { return scratchPool.Get().(*preprocess.Scratch) }

// PutScratch returns s to the pool unless it has grown past
// maxPooledScratchBytes.
func PutScratch(s *preprocess.Scratch) {
	if s.Bytes() <= maxPooledScratchBytes {
		scratchPool.Put(s)
	}
}
