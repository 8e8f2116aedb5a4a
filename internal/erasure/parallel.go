package erasure

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// blockSize is the sub-stripe granule the coders shard work by: large
// enough to amortize the goroutine handoff when fanning out, small enough
// that a Verify range's recomputed parity stays cache-resident until it is
// compared.
const blockSize = 32 << 10

// forEachRange invokes fn over consecutive [lo, hi) sub-ranges covering
// [0, size), fanning blocks out to at most GOMAXPROCS goroutines. fn must
// be safe to call concurrently on disjoint ranges. With a single worker
// (or a single block) the ranges run inline on the calling goroutine.
func forEachRange(size int, fn func(lo, hi int)) {
	nblocks := (size + blockSize - 1) / blockSize
	workers := runtime.GOMAXPROCS(0)
	if workers > nblocks {
		workers = nblocks
	}
	if workers <= 1 {
		for lo := 0; lo < size; lo += blockSize {
			fn(lo, min(lo+blockSize, size))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nblocks {
					return
				}
				lo := b * blockSize
				fn(lo, min(lo+blockSize, size))
			}
		}()
	}
	wg.Wait()
}

// scratchPool recycles parity scratch buffers across Verify calls and range
// workers, so verification stops allocating per call.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, blockSize)
		return &b
	},
}

// getScratch returns a pooled buffer of length n; release with putScratch.
func getScratch(n int) *[]byte {
	p := scratchPool.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

func putScratch(p *[]byte) { scratchPool.Put(p) }
