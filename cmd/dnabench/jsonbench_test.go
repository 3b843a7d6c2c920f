package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/cluster"
)

// preFixAllocRegressed replicates the alloc gate as it stood before
// allocRegressed was extracted: the fractional delta was only computed
// when the baseline was positive, so a zero-alloc baseline left it at 0
// and ANY growth — 0 -> 1000 included — sailed through the gate. Kept
// here as the executable statement of the bug the tests below pin.
func preFixAllocRegressed(baseline, current int64, tolerance float64) bool {
	allocDelta := 0.0
	if baseline > 0 {
		allocDelta = float64(current-baseline) / float64(baseline)
	}
	return allocDelta > tolerance && current-baseline > 8
}

// TestAllocRegressedZeroBaseline is the regression test for the blind
// spot: with a zero-alloc baseline, growth beyond the absolute grace must
// trip the gate. Run against preFixAllocRegressed, the first assertion
// fails — that logic passed 0 -> 1000.
func TestAllocRegressedZeroBaseline(t *testing.T) {
	if !allocRegressed(0, 1000, 0.15) {
		t.Fatal("0 -> 1000 allocs/op must regress: zero baseline may not disable the gate")
	}
	if !allocRegressed(0, allocGrace+1, 0.15) {
		t.Fatalf("0 -> %d allocs/op must regress (first count past the grace)", allocGrace+1)
	}
	if allocRegressed(0, allocGrace, 0.15) {
		t.Fatalf("0 -> %d allocs/op is within the absolute grace and must pass", allocGrace)
	}
	if allocRegressed(0, 0, 0.15) {
		t.Fatal("0 -> 0 allocs/op must pass")
	}
	// Document the pre-fix behaviour so the fixture itself stays honest:
	// the old logic was blind to exactly the case above.
	if preFixAllocRegressed(0, 1000, 0.15) {
		t.Fatal("fixture error: the pre-fix logic was expected to miss 0 -> 1000")
	}
}

// TestAllocRegressedPositiveBaseline checks the fractional gate and the
// absolute grace are unchanged for ordinary baselines.
func TestAllocRegressedPositiveBaseline(t *testing.T) {
	cases := []struct {
		baseline, current int64
		tolerance         float64
		want              bool
	}{
		{100, 100, 0.15, false},    // unchanged
		{100, 90, 0.15, false},     // improvement
		{100, 110, 0.15, false},    // +10% under a 15% tolerance
		{100, 130, 0.15, true},     // +30% and +30 absolute
		{10, 12, 0.15, false},      // +20% but within the 8-alloc grace
		{10, 19, 0.15, true},       // +90% and past the grace
		{1000, 1005, 0.001, false}, // +0.5% over a 0.1% tolerance but within grace
		{1000, 1200, 0.15, true},   // +20%
		{8275, 1208, 0.15, false},  // the large improvement this PR lands
	}
	for _, c := range cases {
		if got := allocRegressed(c.baseline, c.current, c.tolerance); got != c.want {
			t.Errorf("allocRegressed(%d, %d, %g) = %v, want %v",
				c.baseline, c.current, c.tolerance, got, c.want)
		}
	}
}

// TestAlignWorkloadShapes pins the alignment rows of BENCH_sim.json to the
// traffic they stand for: the noisy pair is a few edits apart, as reads
// are from their reference, the unrelated pair is more than half a
// strand apart, and the prefix pair shares its primer but ends over the
// clustering threshold, as a store get's rejected pairs do.
func TestAlignWorkloadShapes(t *testing.T) {
	names := map[string]bool{}
	for _, w := range benchWorkloads() {
		names[w.name] = true
	}
	for _, want := range []string{"align.script/noisy110", "align.script/unrelated110", "align.distance_at_most/noisy110",
		"align.distance_at_most/prefix132"} {
		if !names[want] {
			t.Errorf("workload %s missing", want)
		}
	}
	ref, read := noisyBenchPair(1)
	if d := align.Distance(ref, read); d < 1 || d > 20 {
		t.Errorf("noisy pair distance %d, want a few edits (1..20) at 6%% noise", d)
	}
	refs := channel.RandomReferences(2, 110, 1)
	if d := align.Distance(string(refs[0]), string(refs[1])); 2*d+1 < 111 {
		t.Errorf("unrelated pair distance %d: not the far end of the range", d)
	}
	ref, read = prefixBenchPair()
	if len(ref) != storeBenchRefLen || align.Distance(ref[:20], read[:20]) > 2 {
		t.Errorf("prefix pair %q, %q: want a %d-nt strand and a read of its 20-nt primer", ref, read, storeBenchRefLen)
	}
	if _, ok := align.DistanceAtMost(ref, read, len(ref)/4); ok {
		t.Errorf("prefix pair distance %d is within the threshold %d; want a reject", align.Distance(ref, read), len(ref)/4)
	}
}

// TestLayerWorkloadShapes pins the cluster, profile and recon rows of
// BENCH_sim.json to the input shapes of the evaluate loop and the store
// get they stand for.
func TestLayerWorkloadShapes(t *testing.T) {
	names := map[string]bool{}
	for _, w := range benchWorkloads() {
		names[w.name] = true
	}
	for _, want := range []string{"cluster.greedy/1800reads", "cluster.greedy/store672reads", "cluster.assign/300refs",
		"profile.reads/300clusters", "recon.iterative/cov6"} {
		if !names[want] {
			t.Errorf("workload %s missing", want)
		}
	}
	pool := greedyBenchPool(1)
	if len(pool) != 1800 {
		t.Errorf("greedy pool has %d reads, want 1800", len(pool))
	}
	if n := len(cluster.GreedyIndices(pool, cluster.Config{})); n < 300 || n > 450 {
		t.Errorf("greedy pool forms %d clusters, want 300 plus some fragmentation", n)
	}
	// The store row's pool is the cluster package's store golden pool:
	// same Greedy output hash.
	store := greedyStoreBenchPool()
	sum := sha256.Sum256([]byte(fmt.Sprint(cluster.GreedyIndices(store, cluster.Config{}))))
	if len(store) != 672 || hex.EncodeToString(sum[:16]) != "07f8cac9d465d7ed2b5f4d8f1d6e2587" {
		t.Errorf("store greedy pool (%d reads) is not the store golden pool", len(store))
	}
	assigned := cluster.AssignToReferences(cluster.Greedy(pool, cluster.Config{}), evalBenchRefs(1), 40)
	if assigned.NumClusters() != 300 || assigned.NumReads() < 1700 {
		t.Errorf("assign row: %d clusters, %d reads assigned; want 300 and nearly all 1800", assigned.NumClusters(), assigned.NumReads())
	}
	ds := profileBenchDataset(1)
	if ds.NumClusters() != 300 || ds.NumReads() < 300*20 {
		t.Errorf("profile dataset: %d clusters, %d reads; want 300 at about 27x", ds.NumClusters(), ds.NumReads())
	}
	rd := reconBenchDataset(1)
	if rd.NumClusters() != reconBenchClusters || rd.NumReads() != 6*reconBenchClusters {
		t.Errorf("recon dataset: %d clusters, %d reads; want %d at 6x", rd.NumClusters(), rd.NumReads(), reconBenchClusters)
	}
}

// TestMedianRun pins the rule -compare gates on: each row's median of
// compareRounds runs, so that one or two runs landing on a busy stretch
// neither fail the gate nor hide a real regression that three of five
// runs show, while the spread still reports them.
func TestMedianRun(t *testing.T) {
	runs := func(ns ...int64) []benchResult {
		out := make([]benchResult, len(ns))
		for i, n := range ns {
			out[i] = benchResult{Name: "row", NsPerOp: n, AllocsPerOp: n / 100}
		}
		return out
	}
	cases := []struct {
		ns                   []int64
		median, minNs, maxNs int64
	}{
		{[]int64{1000, 1010, 990, 1005, 995}, 1000, 990, 1010},
		{[]int64{1000, 1900, 1010, 990, 1700}, 1010, 990, 1900}, // two busy runs: median unmoved
		{[]int64{1000, 1900, 1800, 990, 1700}, 1700, 990, 1900}, // three slow runs: a real regression
		{[]int64{1200, 1000}, 1000, 1000, 1200},                 // even count: the lower middle
		{[]int64{1000}, 1000, 1000, 1000},
	}
	for _, c := range cases {
		in := runs(c.ns...)
		med, lo, hi := medianRun(in)
		if med.NsPerOp != c.median || lo != c.minNs || hi != c.maxNs {
			t.Errorf("medianRun(%v) = %d, %d–%d; want %d, %d–%d", c.ns, med.NsPerOp, lo, hi, c.median, c.minNs, c.maxNs)
		}
		if med.AllocsPerOp != c.median/100 {
			t.Errorf("medianRun(%v) allocs/op %d: not the median run's own", c.ns, med.AllocsPerOp)
		}
		if in[0].NsPerOp != c.ns[0] {
			t.Errorf("medianRun reordered its input")
		}
	}
	if compareRounds < 5 {
		t.Errorf("compareRounds = %d; the gate needs at least 5 runs for a median to absorb two busy ones", compareRounds)
	}
}
