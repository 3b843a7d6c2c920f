package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForVisitsEachIndexOnce checks that For calls fn exactly once per
// index at GOMAXPROCS 1, 2 and 4, for no items, one, and more items than
// workers.
func TestForVisitsEachIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 3, 1000} {
			hits := make([]atomic.Int32, n)
			For(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("procs=%d n=%d: index %d visited %d times", procs, n, i, h)
				}
			}
		}
	}
}

// TestForInlineWithOneWorker checks that one worker runs the items in
// index order on the calling goroutine.
func TestForInlineWithOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var order []int
	For(5, func(i int) { order = append(order, i) })
	if fmt.Sprint(order) != "[0 1 2 3 4]" {
		t.Errorf("order %v, want 0..4", order)
	}
}

// TestChunksPartition checks that the chunks tile [0, n) in order, are no
// smaller than the grain when there is more than one, and collapse to one
// chunk with one worker.
func TestChunksPartition(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 511, 512, 513, 5000} {
			chunks, bounds := Chunks(n, 512)
			next := 0
			for c := 0; c < chunks; c++ {
				lo, hi := bounds(c)
				if lo != next || hi < lo || (chunks > 1 && hi-lo < 512) {
					t.Fatalf("procs=%d n=%d: chunk %d is [%d, %d) after %d", procs, n, c, lo, hi, next)
				}
				next = hi
			}
			if next != n || (procs == 1 && chunks != 1) {
				t.Fatalf("procs=%d n=%d: %d chunks cover [0, %d)", procs, n, chunks, next)
			}
		}
	}
}
