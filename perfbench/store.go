package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/cluster"
	"dnastore/internal/codec"
	"dnastore/internal/dna"
	"dnastore/internal/recon"
	"dnastore/internal/rng"
	"dnastore/internal/store"
)

// Input shape of the store workload: a pool of storeBase seeded objects
// built at set-up, storePuts more put in each cycle, and every object got
// back in each cycle. Object sizes cycle through storeSizes.
const (
	storeBase = 15
	storePuts = 3
	// storeCoverage and storeError are the dnastore get defaults.
	storeCoverage = 14
	storeError    = 0.02
)

// storeSizes are a few hundred bytes each. cluster.Greedy's time on a get
// grows steeply with the object's strand count (on a 2-core box a 1 KiB get
// takes about 0.7 s and a 2 KiB get about 10 s), and every cycle gets every
// object; a narrow size mix keeps the get latency percentiles from landing
// between size classes.
var storeSizes = []int{384, 512, 640}

// storeRunner drives dnastore put/get: each put is Pool.Store then
// Pool.SaveFile; a get side loads the pool file, sequences the whole pool
// once and retrieves every key from that read-out.
type storeRunner struct {
	seed      uint64
	basePath  string // the pool built at set-up
	cyclePath string // the pool a cycle puts into
	want      map[string][]byte

	// The last cycle's read side, kept for the replay probe.
	lastPool  *store.Pool
	lastReads []dna.Strand

	tallies map[string]float64
}

// objectBytes is the seeded content of one object.
func objectBytes(seed uint64, size int) []byte {
	r := rng.New(seed)
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

func newStore(seed uint64, dir string) (runner, error) {
	r := &storeRunner{
		seed:      seed,
		basePath:  filepath.Join(dir, "base.pool"),
		cyclePath: filepath.Join(dir, "cycle.pool"),
		want:      map[string][]byte{},
		tallies:   map[string]float64{},
	}
	// The same archive layout dnastore put gives a new pool.
	p := store.New(store.Options{
		Archive: codec.Archive{StrandParity: 8, GroupData: 10, GroupParity: 6},
		Seed:    seed,
	})
	for i := 0; i < storeBase; i++ {
		key := fmt.Sprintf("base-%02d", i)
		data := objectBytes(seed*1000+uint64(i), storeSizes[i%len(storeSizes)])
		if err := p.Store(key, data); err != nil {
			return nil, err
		}
		if err := p.SaveFile(r.basePath); err != nil {
			return nil, err
		}
		r.want[key] = data
	}
	// Warm-up: load, sequence and get the smallest object once.
	q, _, err := store.LoadFile(r.basePath)
	if err != nil {
		return nil, err
	}
	reads, err := q.SequenceCtx(context.Background(), sequencer(), seqCoverage(), seed)
	if err != nil {
		return nil, err
	}
	got, _, err := q.RetrieveReport("base-00", reads)
	if err != nil {
		return nil, err
	}
	if err := checkGet("base-00", got, r.want["base-00"]); err != nil {
		return nil, err
	}
	return r, nil
}

// sequencer and seqCoverage are the dnastore get read-out defaults.
func sequencer() channel.Channel {
	return channel.NewNaive("sequencer", channel.NanoporeMix(storeError))
}

func seqCoverage() channel.CoverageModel {
	return channel.NegBinCoverage{Mean: storeCoverage, Dispersion: 6}
}

func (r *storeRunner) cycle(tr *tracer, n int) (c cycleResult) {
	fail := func(err error) {
		c.failed++
		c.errs = append(c.errs, err)
	}
	t0 := time.Now()
	defer func() { c.wall = time.Since(t0) }()

	// Put side: open the set-up pool and put storePuts new objects.
	sc := tr.op()
	sp := tr.begin(sc, "durable.load")
	p, _, err := store.LoadFile(r.basePath)
	if err != nil {
		sp.end(0)
		fail(err)
		return c
	}
	sp.end(p.NumStrands())
	want := map[string][]byte{}
	for k, v := range r.want {
		want[k] = v
	}
	for i := 0; i < storePuts; i++ {
		key := fmt.Sprintf("cycle%d-%d", n, i)
		k := storeBase + i
		data := objectBytes(r.seed*1000+uint64(k+(n+1)*storePuts), storeSizes[k%len(storeSizes)])
		before := p.NumStrands()
		sc := tr.op()
		sp := tr.begin(sc, "store.put")
		err := p.Store(key, data)
		if err == nil {
			save := tr.begin(sp.child(), "durable.save")
			err = p.SaveFile(r.cyclePath)
			save.end(p.NumStrands())
		}
		sp.end(p.NumStrands() - before)
		c.attempted++
		if err != nil {
			fail(err)
			continue
		}
		c.items += p.NumStrands() - before
		want[key] = data
	}

	// Get side: load the pool file, sequence it once, get every key.
	sc = tr.op()
	sp = tr.begin(sc, "durable.load")
	q, _, err := store.LoadFile(r.cyclePath)
	if err != nil {
		sp.end(0)
		fail(err)
		return c
	}
	sp.end(q.NumStrands())
	sp = tr.begin(sc, "channel.sequence")
	reads, err := q.SequenceCtx(context.Background(), sequencer(), seqCoverage(), r.seed+uint64(n)+1)
	sp.end(q.NumStrands())
	if err != nil {
		fail(err)
		return c
	}
	r.lastPool, r.lastReads = q, reads
	for _, key := range q.Keys() {
		sc := tr.op()
		t := time.Now()
		sp := tr.begin(sc, "store.get")
		got, rep, err := q.RetrieveReport(key, reads)
		sp.end(rep.TotalStrands)
		c.lat = append(c.lat, time.Since(t))
		c.attempted++
		if err == nil {
			err = checkGet(key, got, want[key])
		}
		if err != nil {
			fail(err)
			continue
		}
		c.items += rep.TotalStrands
		if tr != nil {
			r.tallies["strands"] += float64(rep.TotalStrands)
			r.tallies["selected"] += float64(rep.ReadsSelected)
			r.tallies["clusters"] += float64(rep.Clusters)
			r.tallies["repaired"] += float64(rep.Repaired)
			r.tallies["unrecovered"] += float64(len(rep.Unrecovered))
		}
	}
	return c
}

func (r *storeRunner) callers() int { return 1 }

// poolSnapshot mirrors the fields of the pool's JSON form the replay needs.
type poolSnapshot struct {
	Options struct {
		PayloadBytes   int `json:"payload_bytes"`
		StrandParity   int `json:"strand_parity"`
		GroupData      int `json:"group_data"`
		GroupParity    int `json:"group_parity"`
		PrimerMismatch int `json:"primer_mismatch"`
	} `json:"options"`
	Objects []struct {
		Key    string `json:"key"`
		Primer string `json:"primer"`
	} `json:"objects"`
}

// replay re-runs the four steps of one get — primer selection, clustering,
// two-way Iterative and decoding — on the last cycle's read-out for one of
// its objects, the layers store.get reaches only indirectly.
func (r *storeRunner) replay(tr *tracer) error {
	if r.lastPool == nil {
		return fmt.Errorf("store: no read-out to replay")
	}
	var buf bytes.Buffer
	if err := r.lastPool.Save(&buf); err != nil {
		return err
	}
	var snap poolSnapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		return fmt.Errorf("store: reading the pool snapshot: %w", err)
	}
	const key = "base-01" // storeSizes[1] bytes
	var primer dna.Strand
	for _, o := range snap.Objects {
		if o.Key == key {
			primer = dna.Strand(o.Primer)
		}
	}
	if primer == "" {
		return fmt.Errorf("store: key %q not in the pool", key)
	}
	arch := codec.Archive{
		PayloadBytes: snap.Options.PayloadBytes, StrandParity: snap.Options.StrandParity,
		GroupData: snap.Options.GroupData, GroupParity: snap.Options.GroupParity,
	}

	sc := tr.replayOp()
	sp := tr.begin(sc, "codec.select_amplify")
	selected := codec.SelectAmplify(r.lastReads, primer, snap.Options.PrimerMismatch)
	sp.end(len(r.lastReads))
	sp = tr.begin(sc, "cluster.greedy")
	groups := cluster.Greedy(selected, cluster.Config{})
	sp.end(len(selected))
	sp = tr.begin(sc, "recon.twoway")
	tw := recon.NewTwoWayIterative()
	var recovered []dna.Strand
	for _, members := range groups {
		if len(members) > 0 {
			recovered = append(recovered, tw.Reconstruct(members, arch.StrandLength()))
		}
	}
	sp.end(len(groups))
	sp = tr.begin(sc, "codec.decode")
	got, _, err := arch.DecodeReport(recovered)
	sp.end(len(recovered))
	if err != nil {
		return fmt.Errorf("store: replayed decode of %q: %w", key, err)
	}
	return checkGet(key, got, r.want[key])
}

func (r *storeRunner) counts() map[string]float64 {
	t := r.tallies
	return map[string]float64{
		"store.get.selected_frac":       ratio(t["selected"], t["strands"]*storeCoverage),
		"store.get.clusters_per_strand": ratio(t["clusters"], t["strands"]),
		"store.get.repaired":            t["repaired"],
		"store.get.unrecovered":         t["unrecovered"],
	}
}

func (r *storeRunner) close() error { return nil }
