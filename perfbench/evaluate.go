package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/cluster"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
	"dnastore/internal/metrics"
	"dnastore/internal/profile"
	"dnastore/internal/recon"
	"dnastore/internal/rng"
	"dnastore/internal/wetlab"
)

// Input shape of the evaluate workload: a wetlab.DefaultConfig-shaped
// dataset cut to evalClusters clusters, re-simulated at evalCoverage.
const (
	evalClusters = 300
	evalCoverage = 6
	// evalMaxDist is the distance within which a cluster is assigned to a
	// reference, as the clustering experiment uses.
	evalMaxDist = 40
	// replayPairs bounds the (reference, read) pairs the align probes replay.
	replayPairs = 2000
)

// evaluateRunner runs the paper's calibrate-and-evaluate loop: read the
// wetlab dataset, profile it, fit the second-order model, simulate at fixed
// coverage, cluster the shuffled pool, assign clusters to references,
// reconstruct with BMA and Iterative, and score.
type evaluateRunner struct {
	seed    uint64
	rate    float64 // the wetlab error rate the profile must recover
	raw     []byte  // the serialised wetlab dataset
	last    *dataset.Dataset
	tallies map[string]float64
}

func newEvaluate(seed uint64, _ string) (runner, error) {
	cfg := wetlab.DefaultConfig()
	cfg.NumClusters = evalClusters
	cfg.Seed = seed
	ds, err := wetlab.Generate(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		return nil, err
	}
	r := &evaluateRunner{seed: seed, rate: cfg.ErrorRate, raw: buf.Bytes(), tallies: map[string]float64{}}
	if c := r.cycle(nil, -1); c.failed > 0 {
		return nil, c.errs[0]
	}
	return r, nil
}

func (r *evaluateRunner) cycle(tr *tracer, n int) cycleResult {
	sc := tr.op()
	t0 := time.Now()
	sp := tr.begin(sc, "dataset.read")
	wet, err := dataset.Read(bytes.NewReader(r.raw))
	if err != nil {
		sp.end(0)
		return failedCycle(time.Since(t0), err)
	}
	sp.end(wet.NumClusters())
	r.last = wet

	sp = tr.begin(sc, "profile.profile")
	prof, err := profile.Profile(wet, profile.Options{})
	sp.end(wet.NumReads())
	if err != nil {
		return failedCycle(time.Since(t0), err)
	}
	model := prof.SecondOrderModel("calibrated", 10)
	refs := wet.References()

	sp = tr.begin(sc, "channel.simulate")
	sim := channel.Simulator{Channel: model, Coverage: channel.FixedCoverage(evalCoverage)}
	simDS, err := sim.SimulateCtx(context.Background(), "calibrated", refs, r.seed+uint64(n)+1)
	sp.end(len(refs))
	if err != nil {
		return failedCycle(time.Since(t0), err)
	}
	pool := simDS.AllReads(rng.New(r.seed ^ uint64(n+1)))

	sp = tr.begin(sc, "cluster.greedy")
	groups := cluster.Greedy(pool, cluster.Config{})
	sp.end(len(pool))
	sp = tr.begin(sc, "cluster.assign")
	assigned := cluster.AssignToReferences(groups, refs, evalMaxDist)
	sp.end(len(groups))

	sp = tr.begin(sc, "recon.bma")
	bma := recon.ReconstructDataset(recon.NewBMA(), assigned)
	sp.end(len(bma))
	sp = tr.begin(sc, "recon.iterative")
	iter := recon.ReconstructDataset(recon.NewIterative(), assigned)
	sp.end(len(iter))
	accBMA := metrics.ComputeAccuracy(refs, bma)
	accIter := metrics.ComputeAccuracy(refs, iter)
	wall := time.Since(t0)

	if tr != nil {
		r.tallies["refs"] += float64(len(refs))
		r.tallies["groups"] += float64(len(groups))
		r.tallies["pool"] += float64(len(pool))
		r.tallies["assigned"] += float64(assigned.NumReads())
		r.tallies["bma_perfect"] += accBMA.PerStrand / 100 * float64(len(refs))
		r.tallies["iter_perfect"] += accIter.PerStrand / 100 * float64(len(refs))
		r.tallies["bma_len_miss"] += float64(lengthMisses(assigned, bma))
		r.tallies["iter_len_miss"] += float64(lengthMisses(assigned, iter))
	}
	c := cycleResult{wall: wall, items: len(refs), lat: []time.Duration{wall}, attempted: 1}
	if err := checkEvaluate(prof.AggregateRate(), r.rate, assigned, bma, iter); err != nil {
		c.failed, c.errs = 1, []error{err}
	}
	return c
}

func (r *evaluateRunner) callers() int { return 1 }

// replay times the two alignment kernels the loop reaches only through
// profile and cluster, over the wetlab dataset's own (reference, read)
// pairs.
func (r *evaluateRunner) replay(tr *tracer) error {
	var refs, reads []dna.Strand
	for _, c := range r.last.Clusters {
		for _, read := range c.Reads {
			if len(refs) == replayPairs {
				break
			}
			refs, reads = append(refs, c.Ref), append(reads, read)
		}
	}
	if len(refs) == 0 {
		return fmt.Errorf("evaluate: no (reference, read) pairs to replay")
	}
	sc := tr.replayOp()
	sp := tr.begin(sc, "align.script")
	for i := range refs {
		align.Script(string(refs[i]), string(reads[i]), align.ScriptOptions{})
	}
	sp.end(len(refs))
	sp = tr.begin(sc, "align.distance_at_most")
	for i := range refs {
		align.DistanceAtMost(string(refs[i]), string(reads[i]), refs[i].Len()/4)
	}
	sp.end(len(refs))
	return nil
}

func (r *evaluateRunner) counts() map[string]float64 {
	t := r.tallies
	return map[string]float64{
		"cluster.fragmentation":            ratio(t["groups"], t["refs"]),
		"cluster.assigned_frac":            ratio(t["assigned"], t["pool"]),
		"recon.bma.perfect_frac":           ratio(t["bma_perfect"], t["refs"]),
		"recon.iterative.perfect_frac":     ratio(t["iter_perfect"], t["refs"]),
		"recon.bma.length_miss_frac":       ratio(t["bma_len_miss"], t["refs"]),
		"recon.iterative.length_miss_frac": ratio(t["iter_len_miss"], t["refs"]),
	}
}

func (r *evaluateRunner) close() error { return nil }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
