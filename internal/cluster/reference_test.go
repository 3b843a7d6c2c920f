package cluster

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
)

// The slow references the clustering is checked against: the minimizer
// sketch as it stood before it dropped its sort and heap hashers, and the
// serial Greedy and reference assignment as they stood before they ran on
// every core. Only the names and first doc lines changed.

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

// refGreedyIndices clusters the pool and returns the member indices of each
// cluster, in pool order of first member. Reads shorter than the k-mer
// length form singleton clusters.
func refGreedyIndices(pool []dna.Strand, cfg Config) [][]int {
	type clusterRec struct {
		rep     dna.Strand
		members []int
	}
	var clusters []clusterRec
	buckets := make(map[uint64][]int) // minimizer hash -> cluster ids
	sigBuf := make([]uint64, 0, cfg.signatures())
	// seen[cid] == i+1 marks cluster cid as already compared with read i.
	var seen []int

	for i, read := range pool {
		sigs := minimizers(read, cfg.k(), cfg.signatures(), sigBuf[:0])
		best := -1
		bestDist := int(^uint(0) >> 1)
		for _, s := range sigs {
			for _, cid := range buckets[s] {
				if seen[cid] == i+1 {
					continue
				}
				seen[cid] = i + 1
				rep := clusters[cid].rep
				thr := cfg.threshold(read.Len())
				if d, ok := align.DistanceAtMost(string(rep), string(read), thr); ok && d < bestDist {
					best, bestDist = cid, d
				}
			}
		}
		if best >= 0 {
			clusters[best].members = append(clusters[best].members, i)
			// Register the new member's signatures too: later reads that
			// share no minimizer with the representative can still find
			// the cluster through this member.
			for _, s := range sigs {
				if !containsID(buckets[s], best) {
					buckets[s] = append(buckets[s], best)
				}
			}
			continue
		}
		cid := len(clusters)
		clusters = append(clusters, clusterRec{rep: read, members: []int{i}})
		seen = append(seen, 0)
		for _, s := range sigs {
			buckets[s] = append(buckets[s], cid)
		}
	}

	out := make([][]int, len(clusters))
	for i, c := range clusters {
		out[i] = c.members
	}
	return out
}

// refAssign maps unlabeled clusters back to reference strands for
// evaluation: each cluster is assigned to the reference nearest to its
// representative (first member); clusters beyond maxDist from every
// reference are dropped; multiple clusters mapping to one reference are
// merged. References attracting no cluster become erasures. The result is
// a Dataset comparable against the perfect clustering.
func refAssign(clusters [][]dna.Strand, refs []dna.Strand, maxDist int) *dataset.Dataset {
	ds := &dataset.Dataset{Name: "reclustered", Clusters: make([]dataset.Cluster, len(refs))}
	for i, ref := range refs {
		ds.Clusters[i].Ref = ref
	}
	// Bucket references by minimizer for fast nearest lookup.
	cfg := Config{}
	refBuckets := make(map[uint64][]int)
	sigBuf := make([]uint64, 0, cfg.signatures())
	for i, ref := range refs {
		for _, s := range minimizers(ref, cfg.k(), cfg.signatures(), sigBuf[:0]) {
			refBuckets[s] = append(refBuckets[s], i)
		}
	}
	// seen[ri] == ci+1 marks reference ri as already compared with
	// cluster ci.
	seen := make([]int, len(refs))
	for ci, members := range clusters {
		if len(members) == 0 {
			continue
		}
		rep := members[0]
		best, bestDist := -1, maxDist+1
		for _, s := range minimizers(rep, cfg.k(), cfg.signatures(), sigBuf[:0]) {
			for _, ri := range refBuckets[s] {
				if seen[ri] == ci+1 {
					continue
				}
				seen[ri] = ci + 1
				if d, ok := align.DistanceAtMost(string(refs[ri]), string(rep), maxDist); ok && d < bestDist {
					best, bestDist = ri, d
				}
			}
		}
		if best < 0 {
			continue // junk cluster: not close to any reference
		}
		ds.Clusters[best].Reads = append(ds.Clusters[best].Reads, members...)
	}
	return ds
}

// atProcs runs f once at each of GOMAXPROCS 1, 2 and 4, the worker counts
// of the parallel read path's serial, paired and oversubscribed cases.
func atProcs(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), f)
	}
}

// checkGreedy compares GreedyIndices with the serial reference on one pool.
func checkGreedy(t *testing.T, pool []dna.Strand, cfg Config) {
	t.Helper()
	got := GreedyIndices(pool, cfg)
	if want := refGreedyIndices(pool, cfg); !reflect.DeepEqual(got, want) {
		t.Fatalf("GreedyIndices(%d reads, %+v) = %d clusters, reference %d clusters; first difference at %d",
			len(pool), cfg, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b [][]int) int {
	for i := range min(len(a), len(b)) {
		if !reflect.DeepEqual(a[i], b[i]) {
			return i
		}
	}
	return min(len(a), len(b))
}

// differentialPools are the pools the parallel Greedy is checked on: the
// evaluate- and store-shaped golden pools, the edge cases (empty, one
// read, reads shorter than k, duplicates), a pool of several blocks'
// worth of near-duplicate reads, and a mixed-length pool.
func differentialPools() map[string][]dna.Strand {
	eval, _ := evaluatePool()
	r := rng.New(77)
	var mixed []dna.Strand
	for i := 0; i < 300; i++ {
		b := make([]byte, r.Intn(60))
		for j := range b {
			b[j] = "ACGT"[r.Intn(4)]
		}
		mixed = append(mixed, dna.Strand(b))
	}
	dup, _, _ := makePoolDataset(12, 30, 0.02, 9)
	return map[string][]dna.Strand{
		"evaluate":   eval,
		"store":      storePool(),
		"empty":      nil,
		"one":        {"ACGTACGTACGTACGTACGT"},
		"short":      {"ACG", "ACG", "AC", "", "ACGTACGTAC", "ACG"},
		"duplicates": {"ACGTACGTACGTAC", "ACGTACGTACGTAC", "ACGTACGTACGTAC"},
		"dense":      dup,
		"mixed":      mixed,
	}
}

// TestGreedyMatchesReference runs GreedyIndices against the serial
// reference at GOMAXPROCS 1, 2 and 4, on every differential pool under the
// default and non-default configurations.
func TestGreedyMatchesReference(t *testing.T) {
	pools := differentialPools()
	cfgs := []Config{{}, {K: 6, Signatures: 3, Threshold: 8}, {K: 14, Signatures: 10}, {K: 4, Signatures: 1, Threshold: 40}}
	atProcs(t, func(t *testing.T) {
		for name, pool := range pools {
			for _, cfg := range cfgs {
				if name == "evaluate" && cfg.Threshold == 40 {
					continue // a near-quadratic pool; the store pool covers dense candidates
				}
				t.Run(fmt.Sprintf("%s/%+v", name, cfg), func(t *testing.T) { checkGreedy(t, pool, cfg) })
			}
		}
	})
}

// TestAssignMatchesReference runs AssignToReferences against the serial
// reference at GOMAXPROCS 1, 2 and 4: the golden assignment input, the
// same clusters with empty and junk clusters mixed in, a tight maxDist
// that drops most clusters, and no references at all.
func TestAssignMatchesReference(t *testing.T) {
	pool, refs := evaluatePool()
	groups := Greedy(pool, Config{})
	junk := append([][]dna.Strand{{}, {"ACGTTTTTTTTTTTTTTTTTACGT"}}, groups...)
	junk = append(junk, nil, []dna.Strand{"A"})
	// Every tie cluster is one substitution from two references: one
	// changed near its start, one near its end. Which of the pair a
	// cluster reaches first depends on its sketch, not on reference order.
	var tieRefs []dna.Strand
	var ties [][]dna.Strand
	for _, ref := range channel.RandomReferences(60, 110, 21) {
		for _, pos := range []int{4, 105} {
			b := []byte(ref)
			b[pos] = "CGTA"[strings.IndexByte("ACGT", b[pos])]
			tieRefs = append(tieRefs, dna.Strand(b))
		}
		ties = append(ties, []dna.Strand{ref})
	}
	dump := func(ds *dataset.Dataset) []byte {
		var buf bytes.Buffer
		if err := ds.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	atProcs(t, func(t *testing.T) {
		for _, c := range []struct {
			name     string
			clusters [][]dna.Strand
			refs     []dna.Strand
			maxDist  int
		}{
			{"golden", groups, refs, 40},
			{"junk", junk, refs, 40},
			{"ties", ties, tieRefs, 40},
			{"tight", groups, refs, 3},
			{"negative", groups[:20], refs, -1},
			{"norefs", groups[:20], nil, 40},
			{"empty", nil, refs, 40},
		} {
			got := dump(AssignToReferences(c.clusters, c.refs, c.maxDist))
			if want := dump(refAssign(c.clusters, c.refs, c.maxDist)); !bytes.Equal(got, want) {
				t.Errorf("%s: AssignToReferences differs from the reference", c.name)
			}
		}
	})
}

// FuzzGreedy checks GreedyIndices against the serial reference on small
// fuzzed pools: the bytes split on ',' into reads, under a fuzzed k,
// signature count and threshold, at GOMAXPROCS 1 and 4. Pools longer than
// a block exercise the speculation across block boundaries.
func FuzzGreedy(f *testing.F) {
	f.Add("ACGTACGTACGTACGT,ACGTACGTACGAACGT,TTTTGGGGCCCCAAAA", uint8(3), uint8(2), uint8(0), uint8(70))
	f.Add("", uint8(9), uint8(5), uint8(0), uint8(1))
	f.Add("AC,ACGTAC,ACG", uint8(0), uint8(0), uint8(2), uint8(3))
	f.Add("AAAAAAAACCCCCCCC,AAAAAAAACCCCCCCA,AAAAAAAACCCCCCAA", uint8(1), uint8(7), uint8(1), uint8(140))
	f.Fuzz(func(t *testing.T, data string, k, n, thr, copies uint8) {
		seeds := bytes.Split([]byte(data), []byte(","))
		if len(seeds) > 16 {
			seeds = seeds[:16]
		}
		// Grow the pool to `copies` reads by cycling the seeds through a
		// light naive channel, so blocks hold near neighbours.
		r := rng.New(uint64(len(data)) + uint64(copies))
		ch := channel.NewNaive("fuzz", channel.NanoporeMix(0.05))
		var pool []dna.Strand
		for i := 0; i < int(copies)%200; i++ {
			s := dna.Strand(seeds[i%len(seeds)])
			if s.Validate() == nil && i >= len(seeds) {
				s = channel.Transmit(ch, s, r)
			}
			pool = append(pool, s)
		}
		cfg := Config{K: int(k) % 16, Signatures: int(n) % 12, Threshold: int(thr) % 20}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			checkGreedy(t, pool, cfg)
		}
	})
}
