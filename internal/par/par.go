// Package par runs index-addressed work on every core. It is the one
// work-stealing loop under the read path: PCR selection (codec), Greedy
// clustering and reference assignment (cluster), and reconstruction
// (recon). Callers write each result into its own slot, so the output is
// the same at any GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the number of workers For runs: GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// For calls fn(i) for every i in [0, n) and returns when all calls have
// returned. Up to Workers() goroutines, the caller's among them, take the
// next unclaimed index from a shared counter, so a few slow items do not
// leave the other workers idle the way fixed contiguous shares would. With
// one worker, or one item, fn runs inline in index order. fn must be safe
// to call concurrently for distinct i.
func For(n int, fn func(i int)) {
	workers := min(Workers(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Chunks splits [0, n) into contiguous chunks of at least grain items, at
// most four per worker and one with one worker, and returns the chunk
// count and chunk c's bounds. Contiguous chunks let a caller keep scratch
// per chunk and concatenate the chunks' results in order.
func Chunks(n, grain int) (int, func(c int) (lo, hi int)) {
	chunks := max(1, min(4*Workers(), n/grain))
	if Workers() == 1 {
		chunks = 1
	}
	return chunks, func(c int) (int, int) {
		return c * n / chunks, (c + 1) * n / chunks
	}
}
