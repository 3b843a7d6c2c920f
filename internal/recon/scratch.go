package recon

import (
	"bytes"
	"slices"
	"sync"

	"dnastore/internal/align"
	"dnastore/internal/dna"
)

// scratch is one goroutine's reusable reconstruction memory: the sweep's
// working copies, look-ahead votes, weights and output, and polish's
// edit-script buffer, column votes and insertion runs. Every Reconstruct
// of the Iterative family takes one from a pool and returns it, so the
// workers of ReconstructDataset each settle on one and a steady-state
// cluster allocates little beyond its estimates.
type scratch struct {
	copies   [][]byte
	backing  []byte
	weights  []float64
	target   []int8
	futVotes []voteCounts
	out      []byte

	ops      []align.Op
	keep     []weightedVotes
	del      []float64
	insCount []float64
	ins      []insRun
	insBytes []byte
}

// insRun is one copy's run of consecutive insertions before estimate
// column pos: its bases are insBytes[lo:hi] and it votes with weight w.
type insRun struct {
	pos, lo, hi int
	w           float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// zeroed returns buf resliced to n zero elements, reallocating only when
// its capacity is short.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// load copies the cluster into the working copies, each reversed when
// reverse is set, and resets every weight to 1. Each copy has room for
// length re-inserted symbols, the most a sweep of length positions can
// add, so the in-place corrections never reallocate.
func (sc *scratch) load(cluster []dna.Strand, length int, reverse bool) [][]byte {
	total := 0
	for _, c := range cluster {
		total += len(c) + length
	}
	if cap(sc.backing) < total {
		sc.backing = make([]byte, total)
	}
	sc.copies, sc.weights = sc.copies[:0], sc.weights[:0]
	off := 0
	for _, c := range cluster {
		cp := sc.backing[off : off+len(c) : off+len(c)+length]
		copy(cp, c)
		if reverse {
			slices.Reverse(cp)
		}
		sc.copies = append(sc.copies, cp)
		sc.weights = append(sc.weights, 1)
		off += len(c) + length
	}
	return sc.copies
}

// lookahead returns the sweep's target window and future-vote arrays for
// a window of w symbols.
func (sc *scratch) lookahead(w int) ([]int8, []voteCounts) {
	sc.target = zeroed(sc.target, w+1)
	sc.futVotes = zeroed(sc.futVotes, w)
	return sc.target, sc.futVotes
}

// refine polishes the estimate until it stops changing or the rounds run
// out.
func (sc *scratch) refine(cluster []dna.Strand, est dna.Strand, weights []float64, rounds int) dna.Strand {
	for r := 0; r < rounds; r++ {
		next := sc.polish(cluster, est, weights)
		if next == est {
			break
		}
		est = next
	}
	return est
}

// polish realigns every copy to the estimate and rebuilds it from the
// alignment columns: a column is dropped when a majority of copy weight
// deletes it, its symbol is the plurality of the aligned read symbols
// otherwise, and a gap between columns gains the plurality inserted
// subsequence when a majority of copy weight inserts there. Whole inserted
// subsequences are voted as units so a truncated estimate recovers its
// missing tail in one round. weights nil means every copy weighs 1; all
// votes and thresholds are weight sums, so a down-weighted contaminant
// cannot overturn columns.
func (sc *scratch) polish(cluster []dna.Strand, est dna.Strand, weights []float64) dna.Strand {
	n := est.Len()
	if n == 0 {
		return est
	}
	sc.keep = zeroed(sc.keep, n)
	sc.del = zeroed(sc.del, n)
	sc.insCount = zeroed(sc.insCount, n+1)
	sc.ins, sc.insBytes = sc.ins[:0], sc.insBytes[:0]
	keep, del, insCount := sc.keep, sc.del, sc.insCount
	totalW := 0.0
	for ci, c := range cluster {
		w := 1.0
		if weights != nil {
			w = weights[ci]
		}
		totalW += w
		sc.ops = align.AppendScript(sc.ops[:0], string(est), string(c), align.ScriptOptions{})
		// Consecutive insertions at one reference position form one run,
		// voted as a unit; a copy has at most one run per position.
		open := false
		for _, op := range sc.ops {
			switch op.Kind {
			case align.Ins:
				if !open || sc.ins[len(sc.ins)-1].pos != op.RefPos {
					sc.ins = append(sc.ins, insRun{pos: op.RefPos, lo: len(sc.insBytes), w: w})
					insCount[op.RefPos] += w
					open = true
				}
				sc.insBytes = append(sc.insBytes, op.ReadBase)
				sc.ins[len(sc.ins)-1].hi = len(sc.insBytes)
			case align.Equal, align.Sub:
				open = false
				keep[op.RefPos].add(baseCode[op.ReadBase], w)
			case align.Del:
				open = false
				del[op.RefPos] += w
			}
		}
	}
	out := sc.out[:0]
	for i := 0; i <= n; i++ {
		if insCount[i]*2 > totalW {
			// Majority of copy weight inserts here: take the plurality
			// sequence.
			out = append(out, sc.pluralityRun(i)...)
		}
		if i == n {
			break
		}
		if del[i]*2 > totalW {
			continue // majority weight deletes this column
		}
		b, ok := keep[i].winner()
		if !ok {
			b = est.At(i)
		}
		out = append(out, b.Byte())
	}
	sc.out = out
	return dna.Strand(out)
}

// pluralityRun returns the inserted subsequence with the most weight
// before column pos, ties to the lexicographically smallest. Each distinct
// subsequence's weight is summed in copy order.
func (sc *scratch) pluralityRun(pos int) []byte {
	var best []byte
	bestW := 0.0
	for a, r := range sc.ins {
		if r.pos != pos || sc.seenRun(a) {
			continue
		}
		seq := sc.insBytes[r.lo:r.hi]
		sw := 0.0
		for _, q := range sc.ins[a:] {
			if q.pos == pos && bytes.Equal(sc.insBytes[q.lo:q.hi], seq) {
				sw += q.w
			}
		}
		if sw > bestW || (sw == bestW && bytes.Compare(seq, best) < 0) {
			best, bestW = seq, sw
		}
	}
	return best
}

// seenRun reports whether a run before sc.ins[a] has the same position
// and subsequence.
func (sc *scratch) seenRun(a int) bool {
	r := sc.ins[a]
	for _, q := range sc.ins[:a] {
		if q.pos == r.pos && bytes.Equal(sc.insBytes[q.lo:q.hi], sc.insBytes[r.lo:r.hi]) {
			return true
		}
	}
	return false
}
