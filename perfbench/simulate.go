package main

import (
	"bytes"
	"context"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/dna"
)

// simStages is the staged physical channel the simulate workload runs.
const simStages = "synthesis=0.0118,pcr=30:0.0001:0.02,aging=100:0.00003:0.00133,sequencing=0.0413:terminal-skew"

// Input shape of the simulate workload: one batch of simBatch seeded
// references of simRefLen bases per operation.
const (
	simBatch  = 2000
	simRefLen = 110
)

// simulateRunner simulates a batch of references through the staged
// pipeline under negative-binomial coverage and serialises the dataset to
// memory, as dnasim does.
type simulateRunner struct {
	seed uint64
	refs []dna.Strand
	sim  channel.Simulator
	out  bytes.Buffer
}

func newSimulate(seed uint64, _ string) (runner, error) {
	stages, err := channel.ParseStages(simStages)
	if err != nil {
		return nil, err
	}
	pipe := stages.Build("perfbench")
	r := &simulateRunner{
		seed: seed,
		refs: channel.RandomReferences(simBatch, simRefLen, seed),
		sim: channel.Simulator{
			Channel:  pipe,
			Coverage: pipe.BindCoverage(channel.NegBinCoverage{Mean: 10, Dispersion: 2.5}),
		},
	}
	// Warm-up: one batch, so the timed cycles start with grown buffers.
	if c := r.cycle(nil, -1); c.failed > 0 {
		return nil, c.errs[0]
	}
	return r, nil
}

func (r *simulateRunner) cycle(tr *tracer, n int) cycleResult {
	sc := tr.op()
	t0 := time.Now()
	sp := tr.begin(sc, "channel.simulate")
	ds, err := r.sim.SimulateCtx(context.Background(), "simulate", r.refs, r.seed+uint64(n)+1)
	sp.end(len(r.refs))
	if err != nil {
		return failedCycle(time.Since(t0), err)
	}
	sp = tr.begin(sc, "dataset.write")
	r.out.Reset()
	err = ds.Write(&r.out)
	sp.end(len(ds.Clusters))
	wall := time.Since(t0)
	if err == nil {
		err = checkSimulated(r.refs, ds, r.out.Bytes())
	}
	c := cycleResult{wall: wall, items: len(r.refs), lat: []time.Duration{wall}, attempted: 1}
	if err != nil {
		c.failed, c.errs = 1, []error{err}
	}
	return c
}

// failedCycle reports a cycle whose one operation failed outright.
func failedCycle(wall time.Duration, err error) cycleResult {
	return cycleResult{wall: wall, lat: []time.Duration{wall}, attempted: 1, failed: 1, errs: []error{err}}
}

func (r *simulateRunner) callers() int               { return 1 }
func (r *simulateRunner) replay(*tracer) error       { return nil }
func (r *simulateRunner) counts() map[string]float64 { return nil }
func (r *simulateRunner) close() error               { return nil }
