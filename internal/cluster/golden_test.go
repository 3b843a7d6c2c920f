package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
	"dnastore/internal/rng"
	"dnastore/internal/wetlab"
)

// Golden hashes for the clustering paths, captured with GOLDEN_PRINT=1
// before the minimizer sketch lost its sort and heap hashers. The sketch's
// order is the bucket visit order and decides ties between equally near
// clusters, so a changed signature set or order shows up here.
const (
	goldenGreedyEvaluate = "a2003e63e1761f25f5b6116d0bbf72e4"
	goldenGreedyStore    = "07f8cac9d465d7ed2b5f4d8f1d6e2587"
	goldenAssign         = "a84e77d731b126722871a290f0d6f2c2"
)

// evaluatePool is the evaluate loop's clustering input: a 300-cluster
// wetlab dataset's reads, shuffled into one unlabeled pool.
func evaluatePool() (pool, refs []dna.Strand) {
	cfg := wetlab.DefaultConfig()
	cfg.NumClusters, cfg.MeanCoverage, cfg.Seed = 300, 6, 11
	ds := wetlab.MustGenerate(cfg)
	return ds.AllReads(rng.New(12)), ds.References()
}

// storePool is a key-value read-out: 48 strands that share one 20-nt
// primer and carry an 8-nt index before their payload, read at 14x through
// a naive channel and shuffled. The shared prefix puts the same k-mers in
// every read, so the sketch's tie order is exercised hard.
func storePool() []dna.Strand {
	primer := string(channel.RandomReferences(1, 20, 31)[0])
	payloads := channel.RandomReferences(48, 104, 32)
	refs := make([]dna.Strand, len(payloads))
	for i, p := range payloads {
		idx := make([]byte, 8)
		for k := range idx {
			idx[k] = "ACGT"[i>>(2*k)&3]
		}
		refs[i] = dna.Strand(primer + string(idx) + string(p))
	}
	sim := channel.Simulator{
		Channel:  channel.NewNaive("store", channel.NanoporeMix(0.04)),
		Coverage: channel.FixedCoverage(14),
	}
	return sim.Simulate("store", refs, 33).AllReads(rng.New(34))
}

func checkGolden(t *testing.T, name, want string, data []byte) {
	t.Helper()
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:16])
	if os.Getenv("GOLDEN_PRINT") != "" {
		fmt.Printf("golden %-16s %s\n", name, got)
		return
	}
	if got != want {
		t.Errorf("%s hash = %s, want %s (clustering output changed)", name, got, want)
	}
}

func TestGoldenGreedyEvaluate(t *testing.T) {
	pool, _ := evaluatePool()
	checkGolden(t, "greedy-evaluate", goldenGreedyEvaluate, []byte(fmt.Sprint(GreedyIndices(pool, Config{}))))
}

func TestGoldenGreedyStore(t *testing.T) {
	checkGolden(t, "greedy-store", goldenGreedyStore, []byte(fmt.Sprint(GreedyIndices(storePool(), Config{}))))
}

func TestGoldenAssignToReferences(t *testing.T) {
	pool, refs := evaluatePool()
	ds := AssignToReferences(Greedy(pool, Config{}), refs, 40)
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "assign", goldenAssign, buf.Bytes())
}
