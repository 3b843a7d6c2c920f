// Package cluster implements the clustering step of the DNA storage read
// pipeline (§1.1.2, §3.1). The simulator's output is already grouped by
// reference ("perfect" or pseudo-clustering); this package additionally
// provides the *imperfect* regime: a shuffled, unlabeled read pool is
// re-clustered by sequence similarity, introducing the characteristic
// errors (fragmented and merged clusters) that a real pipeline's clustering
// stage would.
//
// The clusterer is a greedy single-pass algorithm in the spirit of
// Rashtchian et al. [18]: reads are bucketed by k-mer minimizer signatures
// so that only plausible neighbours are compared, and a read joins the
// nearest candidate cluster whose representative is within an edit
// distance threshold, ties going to the first one visited.
package cluster

import (
	"fmt"
	"slices"

	"dnastore/internal/align"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
	"dnastore/internal/par"
)

// Config parameterises the greedy clusterer.
type Config struct {
	// K is the k-mer length for minimizer signatures (default 10).
	K int
	// Signatures is how many minimizers (smallest k-mer hashes) each read
	// contributes to the bucket index (default 6).
	Signatures int
	// Threshold is the maximum edit distance between a read and a cluster
	// representative for the read to join (default: 25% of read length).
	Threshold int
}

func (c Config) k() int {
	if c.K <= 0 {
		return 10
	}
	return c.K
}

func (c Config) signatures() int {
	if c.Signatures <= 0 {
		return 6
	}
	return c.Signatures
}

func (c Config) threshold(readLen int) int {
	if c.Threshold > 0 {
		return c.Threshold
	}
	return readLen / 4
}

// GreedyIndices clusters the pool and returns the member indices of each
// cluster, in pool order of first member. Reads shorter than the k-mer
// length form singleton clusters.
//
// The result is the same at any GOMAXPROCS. Sketches are computed in
// parallel up front, and the pool is walked in blocks of greedyBlock
// reads: at the start of a block each of its reads measures, in parallel,
// its distance to every cluster its buckets name right then; the block is
// then committed serially in pool order, computing only the distances
// that memo lacks. Buckets only grow and a representative never changes,
// so a memoised distance is the one the commit would compute (DESIGN
// §18.1).
func GreedyIndices(pool []dna.Strand, cfg Config) [][]int {
	type clusterRec struct {
		rep     dna.Strand
		members []int
	}
	var clusters []clusterRec
	buckets := make(map[uint64][]int) // minimizer hash -> cluster ids
	sk := sketchAll(pool, cfg.k(), cfg.signatures())
	// seen[cid] == i+1 marks cluster cid as already compared with read i.
	var seen []int
	// memos[j] holds the block's read j's speculated distances; with one
	// worker nothing is speculated and every commit computes its own.
	memos := make([]memo, greedyBlock)
	speculate := par.Workers() > 1

	for b := 0; b < len(pool); b += greedyBlock {
		end := min(b+greedyBlock, len(pool))
		if speculate && len(clusters) > 0 {
			par.For(end-b, func(j int) {
				read := pool[b+j]
				thr := cfg.threshold(read.Len())
				memos[j].fill(sk.of(b+j), buckets, func(cid int) int {
					d, _ := align.DistanceAtMost(string(clusters[cid].rep), string(read), thr)
					return d
				})
			})
		}
		for i := b; i < end; i++ {
			read := pool[i]
			sigs := sk.of(i)
			m := &memos[i-b]
			thr := cfg.threshold(read.Len())
			best := -1
			bestDist := int(^uint(0) >> 1)
			for _, s := range sigs {
				for _, cid := range buckets[s] {
					if seen[cid] == i+1 {
						continue
					}
					seen[cid] = i + 1
					d, ok := m.get(cid)
					if !ok {
						d, _ = align.DistanceAtMost(string(clusters[cid].rep), string(read), thr)
					}
					if d <= thr && d < bestDist {
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
	}

	out := make([][]int, len(clusters))
	for i, c := range clusters {
		out[i] = c.members
	}
	return out
}

// greedyBlock is how many reads GreedyIndices speculates on at once: big
// enough to spread over the workers, small enough that few of a block's
// clusters are made inside it.
const greedyBlock = 64

// memo holds one strand's distances to a set of candidate ids, the ids in
// ascending order.
type memo struct {
	ids []int
	ds  []int
}

// fill sets the memo to the distinct ids that the sketch's buckets name
// and their distances dist(id).
func (m *memo) fill(sigs []uint64, buckets map[uint64][]int, dist func(id int) int) {
	m.ids = m.ids[:0]
	for _, s := range sigs {
		m.ids = append(m.ids, buckets[s]...)
	}
	slices.Sort(m.ids)
	m.ids = slices.Compact(m.ids)
	m.ds = m.ds[:0]
	for _, id := range m.ids {
		m.ds = append(m.ds, dist(id))
	}
}

// get returns the memoised distance to id, if there is one.
func (m *memo) get(id int) (int, bool) {
	if j, ok := slices.BinarySearch(m.ids, id); ok {
		return m.ds[j], true
	}
	return 0, false
}

// sketches holds a strand set's minimizer sketches, n slots per strand.
type sketches struct {
	n    int
	flat []uint64
	lens []int
}

// of returns strand i's sketch.
func (sk *sketches) of(i int) []uint64 {
	return sk.flat[i*sk.n : i*sk.n+sk.lens[i]]
}

// sketchAll computes every strand's minimizer sketch, in parallel.
func sketchAll(strands []dna.Strand, k, n int) *sketches {
	sk := &sketches{n: n, flat: make([]uint64, len(strands)*n), lens: make([]int, len(strands))}
	chunks, bounds := par.Chunks(len(strands), sketchGrain)
	par.For(chunks, func(c int) {
		lo, hi := bounds(c)
		for i := lo; i < hi; i++ {
			sk.lens[i] = len(minimizers(strands[i], k, n, sk.flat[i*n:i*n:(i+1)*n]))
		}
	})
	return sk
}

// sketchGrain is the fewest strands one sketching chunk takes.
const sketchGrain = 256

// Greedy clusters the pool and returns the member reads of each cluster.
func Greedy(pool []dna.Strand, cfg Config) [][]dna.Strand {
	idx := GreedyIndices(pool, cfg)
	out := make([][]dna.Strand, len(idx))
	for i, members := range idx {
		reads := make([]dna.Strand, len(members))
		for j, m := range members {
			reads[j] = pool[m]
		}
		out[i] = reads
	}
	return out
}

// minimizers appends the n smallest distinct k-mer hashes of the strand to
// buf in ascending order: fewer when the strand has fewer distinct k-mers,
// the whole-strand hash when it is shorter than k. The order is the bucket
// visit order, so it decides ties between equally near clusters. The
// sketch is kept sorted in buf as it grows, so a buf with room for n more
// hashes is never reallocated.
func minimizers(s dna.Strand, k, n int, buf []uint64) []uint64 {
	if len(s) < k {
		return append(buf, fnv1a(s))
	}
	start := len(buf)
	for i := 0; i+k <= len(s); i++ {
		h := fnv1a(s[i : i+k])
		sk := buf[start:]
		if len(sk) == n && h >= sk[n-1] {
			continue
		}
		p := 0
		for p < len(sk) && sk[p] < h {
			p++
		}
		if p < len(sk) && sk[p] == h {
			continue // already in the sketch
		}
		if len(sk) < n {
			buf = append(buf, 0)
			sk = buf[start:]
		}
		copy(sk[p+1:], sk[p:len(sk)-1])
		sk[p] = h
	}
	return buf
}

func containsID(ids []int, id int) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// fnv1a is the 64-bit FNV-1a hash of the strand's bytes, the value
// hash/fnv's New64a gives, without the heap hasher.
func fnv1a(s dna.Strand) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// AssignToReferences maps unlabeled clusters back to reference strands for
// evaluation: each cluster is assigned to the reference nearest to its
// representative (first member); clusters beyond maxDist from every
// reference are dropped; multiple clusters mapping to one reference are
// merged. References attracting no cluster become erasures. The result is
// a Dataset comparable against the perfect clustering. The reference
// buckets are fixed once built, so every cluster's nearest reference is
// found in parallel; the reads are merged serially, in cluster order.
func AssignToReferences(clusters [][]dna.Strand, refs []dna.Strand, maxDist int) *dataset.Dataset {
	ds := &dataset.Dataset{Name: "reclustered", Clusters: make([]dataset.Cluster, len(refs))}
	for i, ref := range refs {
		ds.Clusters[i].Ref = ref
	}
	// Bucket references by minimizer for fast nearest lookup.
	cfg := Config{}
	refSk := sketchAll(refs, cfg.k(), cfg.signatures())
	refBuckets := make(map[uint64][]int)
	for i := range refs {
		for _, s := range refSk.of(i) {
			refBuckets[s] = append(refBuckets[s], i)
		}
	}
	nearest := make([]int, len(clusters))
	chunks, bounds := par.Chunks(len(clusters), assignGrain)
	par.For(chunks, func(c int) {
		var m memo
		sigBuf := make([]uint64, 0, cfg.signatures())
		lo, hi := bounds(c)
		for ci := lo; ci < hi; ci++ {
			nearest[ci] = -1
			if len(clusters[ci]) == 0 {
				continue
			}
			rep := clusters[ci][0]
			sigs := minimizers(rep, cfg.k(), cfg.signatures(), sigBuf[:0])
			m.fill(sigs, refBuckets, func(ri int) int {
				d, _ := align.DistanceAtMost(string(refs[ri]), string(rep), maxDist)
				return d
			})
			// Visit order decides ties: the first reference reached at the
			// least distance wins. A revisited reference repeats its
			// distance, which is never less than the best so far.
			bestDist := maxDist + 1
			for _, s := range sigs {
				for _, ri := range refBuckets[s] {
					if d, _ := m.get(ri); d < bestDist {
						nearest[ci], bestDist = ri, d
					}
				}
			}
		}
	})
	for ci, best := range nearest {
		if best < 0 {
			continue // junk cluster: not close to any reference
		}
		ds.Clusters[best].Reads = append(ds.Clusters[best].Reads, clusters[ci]...)
	}
	return ds
}

// assignGrain is the fewest clusters one assignment chunk takes.
const assignGrain = 64

// Purity computes the weighted purity of a clustering against ground-truth
// labels: for each cluster, the fraction of members sharing the cluster's
// plurality label, weighted by cluster size. 1.0 is a perfect clustering.
func Purity(clusters [][]int, labels []int) (float64, error) {
	total, agree := 0, 0
	for _, members := range clusters {
		counts := map[int]int{}
		for _, m := range members {
			if m < 0 || m >= len(labels) {
				return 0, fmt.Errorf("cluster: member index %d out of label range", m)
			}
			counts[labels[m]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		total += len(members)
		agree += best
	}
	if total == 0 {
		return 0, fmt.Errorf("cluster: empty clustering")
	}
	return float64(agree) / float64(total), nil
}

// LabeledPool flattens a dataset into a read pool with ground-truth labels
// (the cluster index each read came from), optionally shuffled by the
// caller afterwards. It is the standard input for clustering evaluation.
func LabeledPool(ds *dataset.Dataset) (pool []dna.Strand, labels []int) {
	for i, c := range ds.Clusters {
		for _, r := range c.Reads {
			pool = append(pool, r)
			labels = append(labels, i)
		}
	}
	return pool, labels
}
