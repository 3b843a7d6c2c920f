package cluster

import (
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// The slow reference the minimizer sketch is checked against: the
// production code as it stood before the sketch dropped its sort and heap
// hashers; only the names and first doc lines changed.

// refMinimizers is the sort-and-dedupe sketch minimizers replaced, kept
// verbatim as its differential reference. It returns the n smallest k-mer
// hashes of the strand (fewer when the strand has fewer k-mers; the
// whole-strand hash when shorter than k).
func refMinimizers(s dna.Strand, k, n int, buf []uint64) []uint64 {
	if s.Len() < k {
		return append(buf, refHashBytes([]byte(s)))
	}
	hashes := make([]uint64, 0, s.Len()-k+1)
	for i := 0; i+k <= s.Len(); i++ {
		hashes = append(hashes, refHashBytes([]byte(s[i:i+k])))
	}
	sort.Slice(hashes, func(a, b int) bool { return hashes[a] < hashes[b] })
	// Deduplicate while collecting the n smallest.
	var last uint64
	for i, h := range hashes {
		if i > 0 && h == last {
			continue
		}
		buf = append(buf, h)
		last = h
		if len(buf) == n {
			break
		}
	}
	return buf
}

func refHashBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// checkSketch compares minimizers with the reference on one strand; the
// sketch gets a buffer with room for exactly n, as GreedyIndices gives it.
func checkSketch(t *testing.T, s dna.Strand, k, n int) {
	t.Helper()
	got := minimizers(s, k, n, make([]uint64, 0, n))
	if want := refMinimizers(s, k, n, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("minimizers(%q, k=%d, n=%d) = %v, reference %v", s, k, n, got, want)
	}
}

// TestMinimizersMatchReference runs the sketch against the reference on
// noisy 110-nt reads, homopolymer-heavy strands (many repeated k-mers),
// and strands at and around the k-mer length, over the default (k, n) and
// its neighbours.
func TestMinimizersMatchReference(t *testing.T) {
	r := rng.New(41)
	var strands []dna.Strand
	for i := 0; i < 400; i++ {
		b := make([]byte, r.Intn(130))
		alpha := "ACGT"
		if i%4 == 0 {
			alpha = "AAAC" // long runs: duplicate k-mers
		}
		for j := range b {
			b[j] = alpha[r.Intn(4)]
		}
		strands = append(strands, dna.Strand(b))
	}
	for _, s := range strands {
		for _, kn := range [][2]int{{10, 6}, {12, 3}, {1, 1}, {4, 20}, {8, 200}} {
			checkSketch(t, s, kn[0], kn[1])
		}
	}
}

// FuzzMinimizers is the sketch's differential fuzz target: any bytes, any
// k >= 1 and n >= 1, strands shorter than k included.
func FuzzMinimizers(f *testing.F) {
	f.Add("", uint8(9), uint8(5))
	f.Add("ACGTACGTAC", uint8(9), uint8(5))
	f.Add("AAAAAAAAAAAAAAAAAAAAAAAA", uint8(3), uint8(2))
	f.Add("ACGTTGCAACGTTGCAACGTTGCAGGGATTACA", uint8(0), uint8(0))
	f.Add("\x00\xff\x00\xff", uint8(1), uint8(7))
	f.Fuzz(func(t *testing.T, s string, k, n uint8) {
		checkSketch(t, dna.Strand(s), int(k)+1, int(n)+1)
	})
}
