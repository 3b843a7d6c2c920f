package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dnastore/internal/align"
	"dnastore/internal/channel"
	"dnastore/internal/cluster"
	"dnastore/internal/dataset"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/profile"
	"dnastore/internal/recon"
	"dnastore/internal/rng"
	"dnastore/internal/wetlab"
)

// The -json / -compare benchmark modes: machine-readable measurements of
// the simulate hot path — channel.Simulator.Simulate over fixed synthetic
// workloads — of the packed transmit and alignment kernels, and of the
// clustering, profiling and Iterative layers above the kernel, written
// as one JSON document so CI can archive BENCH_sim.json per commit, and
// diffed against a committed baseline so throughput regressions fail the
// build instead of landing silently.
// testing.Benchmark gives the same adaptive iteration count and allocation
// accounting as `go test -bench` without needing the test harness.

// benchResult is one entry of the BENCH_sim.json schema. Field names are
// stable: CI artifacts are compared across commits.
type benchResult struct {
	// Name identifies the measured path.
	Name string `json:"name"`
	// Clusters, RefLen and Coverage pin the workload shape.
	Clusters int `json:"clusters"`
	RefLen   int `json:"ref_len"`
	Coverage int `json:"coverage"`
	// Iterations is the adaptive b.N testing.Benchmark settled on.
	Iterations int `json:"iterations"`
	// NsPerOp is wall time per full simulation (all clusters).
	NsPerOp int64 `json:"ns_per_op"`
	// ClustersPerSec is the simulate throughput CI tracks.
	ClustersPerSec float64 `json:"clusters_per_sec"`
	// AllocsPerOp and BytesPerOp track allocation behaviour.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// GoVersion and GOMAXPROCS contextualise cross-machine numbers.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// benchWorkload is one named hot-path configuration. Most workloads
// measure Simulator.Simulate end to end via the simulate factory; a
// workload may instead supply run to measure a narrower path directly
// (the packed transmit kernels, the alignment kernel). zeroAlloc marks
// workloads whose steady state must not allocate at all — the
// measurement itself fails, in both -json and -compare modes, if
// allocs/op is nonzero.
type benchWorkload struct {
	name      string
	clusters  int
	refLen    int
	coverage  int
	simulate  func() channel.Simulator
	run       func(b *testing.B, seed uint64)
	zeroAlloc bool
}

// secondOrderBenchModel builds the paper's full "+ 2nd-order Errors" tier:
// spatial skew plus specific errors with their own histograms — the
// workload whose per-position second-order scans and (formerly) mutex
// traffic dominate Transmit cost.
func secondOrderBenchModel() *channel.Model {
	m := channel.NewNaive("bench-2so", channel.NanoporeMix(0.059))
	m.LongDel = channel.PaperLongDeletion()
	m.InsDist = [dna.NumBases]float64{0.3, 0.2, 0.2, 0.3}
	tail := make([]float64, 300)
	for i := range tail {
		tail[i] = 1
	}
	tail[299] = 40
	return m.WithSpatial(dist.NanoporeSkew()).WithSecondOrder([]channel.SecondOrderError{
		{Kind: align.Del, From: dna.G, Rate: 0.011, Spatial: []float64{1, 1, 1, 1, 8}},
		{Kind: align.Sub, From: dna.A, To: dna.G, Rate: 0.006},
		{Kind: align.Ins, To: dna.T, Rate: 0.002, Spatial: tail},
	})
}

// benchWorkloads returns the measured configurations. "channel.simulate"
// keeps its original shape for cross-commit continuity; the second entry
// is the second-order + spatial acceptance workload under heavy-tailed
// coverage, which exercises the compiled plan and the work-stealing
// scheduler together.
func benchWorkloads() []benchWorkload {
	return []benchWorkload{
		{
			name: "channel.simulate", clusters: 200, refLen: 110, coverage: 8,
			simulate: func() channel.Simulator {
				return channel.Simulator{
					Channel:  channel.NewNaive("bench", channel.Rates{Sub: 0.01, Ins: 0.005, Del: 0.02}),
					Coverage: channel.FixedCoverage(8),
				}
			},
		},
		{
			name: "channel.simulate/secondorder-spatial", clusters: 400, refLen: 110, coverage: 10,
			simulate: func() channel.Simulator {
				return channel.Simulator{
					Channel:  secondOrderBenchModel(),
					Coverage: channel.NegBinCoverage{Mean: 10, Dispersion: 1.2},
				}
			},
		},
		// The packed transmit kernels, measured read by read through the
		// AppendTransmit arena path — the default path every simulation
		// worker takes. These must run allocation-free: a nonzero allocs/op
		// means a lost pooling or escape-analysis optimisation, and the
		// zeroAlloc flag fails the measurement outright rather than relying
		// on the baseline diff to notice.
		{
			name: "channel.transmit/secondorder-append", refLen: 110, coverage: 1, zeroAlloc: true,
			run: func(b *testing.B, seed uint64) {
				benchAppendTransmit(b, secondOrderBenchModel(), 110, seed)
			},
		},
		{
			name: "channel.transmit/dnasimulator-append", refLen: 110, coverage: 1, zeroAlloc: true,
			run: func(b *testing.B, seed uint64) {
				benchAppendTransmit(b, channel.NewDNASimulator("bench", channel.DefaultNanoporeDict()), 110, seed)
			},
		},
		{
			// The full four-stage pipeline through one AppendTransmit call:
			// every intermediate stage bounces through the Scratch
			// double-buffer, so this is the regression canary for the
			// pipeline staying off the allocator end to end.
			name: "channel.transmit/pipeline-append", refLen: 110, coverage: 1, zeroAlloc: true,
			run: func(b *testing.B, seed uint64) {
				benchAppendTransmit(b, channel.NewStoragePipeline("bench-pipe", 0.059, 10), 110, seed)
			},
		},
		// The alignment kernel, one pair per op: a read under about 6%
		// Nanopore-mix noise against its reference — the traffic of
		// profiling, clustering and Iterative — and an unrelated pair, the
		// far end of the distance range. Both entry points work from a
		// pooled arena, and Script appends into a reused buffer, so neither
		// may allocate.
		{
			name: "align.script/noisy110", refLen: 110, zeroAlloc: true,
			run: func(b *testing.B, seed uint64) {
				ref, read := noisyBenchPair(seed)
				benchScript(b, ref, read)
			},
		},
		{
			name: "align.script/unrelated110", refLen: 110, zeroAlloc: true,
			run: func(b *testing.B, seed uint64) {
				refs := channel.RandomReferences(2, 110, seed)
				benchScript(b, string(refs[0]), string(refs[1]))
			},
		},
		{
			name: "align.distance_at_most/noisy110", refLen: 110, zeroAlloc: true,
			run: func(b *testing.B, seed uint64) {
				ref, read := noisyBenchPair(seed)
				benchDistanceAtMost(b, ref, read)
			},
		},
		// The pair a store get's clustering rejects: a strand against a
		// read of another strand behind the same primer.
		{
			name: "align.distance_at_most/prefix132", refLen: storeBenchRefLen, zeroAlloc: true,
			run: func(b *testing.B, _ uint64) {
				ref, read := prefixBenchPair()
				benchDistanceAtMost(b, ref, read)
			},
		},
		// The three align-bound layers of the calibrate-and-evaluate loop,
		// each on the input shape that loop gives it: Greedy over a
		// shuffled 300-reference pool at 6x, profiling of a 300-cluster
		// wetlab dataset, and Iterative over coverage-6 clusters.
		{
			name: "cluster.greedy/1800reads", clusters: 300, refLen: 110, coverage: 6,
			run: func(b *testing.B, seed uint64) {
				pool := greedyBenchPool(seed)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink += len(cluster.GreedyIndices(pool, cluster.Config{}))
				}
			},
		},
		// The clustering stages of a store get and of the evaluate loop:
		// Greedy over a key's read-out, where a shared primer and index
		// prefix puts every read in the buckets of nearly every cluster,
		// and the assignment of the evaluate pool's Greedy clusters to
		// their 300 references.
		{
			name: "cluster.greedy/store672reads", clusters: storeBenchStrands, refLen: storeBenchRefLen, coverage: 14,
			run: func(b *testing.B, _ uint64) {
				pool := greedyStoreBenchPool()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink += len(cluster.GreedyIndices(pool, cluster.Config{}))
				}
			},
		},
		{
			name: "cluster.assign/300refs", clusters: 300, refLen: 110, coverage: 6,
			run: func(b *testing.B, seed uint64) {
				groups := cluster.Greedy(greedyBenchPool(seed), cluster.Config{})
				refs := evalBenchRefs(seed)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchSink += cluster.AssignToReferences(groups, refs, 40).NumReads()
				}
			},
		},
		{
			name: "profile.reads/300clusters", clusters: 300, refLen: 110,
			run: func(b *testing.B, seed uint64) {
				ds := profileBenchDataset(seed)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p, err := profile.Profile(ds, profile.Options{})
					if err != nil {
						b.Fatal(err)
					}
					benchSink += p.Reads
				}
			},
		},
		{
			name: "recon.iterative/cov6", clusters: reconBenchClusters, refLen: 110, coverage: 6,
			run: func(b *testing.B, seed uint64) {
				ds := reconBenchDataset(seed)
				it := recon.NewIterative()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, c := range ds.Clusters {
						benchSink += it.Reconstruct(c.Reads, c.Ref.Len()).Len()
					}
				}
			},
		},
	}
}

// greedyBenchPool returns the evaluate loop's clustering input: the 300
// seeded 110-nt evalBenchRefs read at exactly 6x through the wetlab
// ground-truth channel, shuffled into one 1800-read pool.
func greedyBenchPool(seed uint64) []dna.Strand {
	sim := channel.Simulator{Channel: wetlab.GroundTruthChannel(0.059), Coverage: channel.FixedCoverage(6)}
	return sim.Simulate("bench-greedy", evalBenchRefs(seed), seed).AllReads(rng.New(seed + 1))
}

// evalBenchRefs are the references behind greedyBenchPool.
func evalBenchRefs(seed uint64) []dna.Strand {
	return channel.RandomReferences(300, 110, seed)
}

// The store-shaped clustering input: storeBenchStrands strands of
// storeBenchRefLen bases, each a shared 20-nt primer, an 8-nt index and a
// seeded payload.
const (
	storeBenchStrands = 48
	storeBenchRefLen  = 132
)

// storeBenchRefs returns the store-shaped strands behind the store rows.
func storeBenchRefs() []dna.Strand {
	primer := string(channel.RandomReferences(1, 20, 31)[0])
	payloads := channel.RandomReferences(storeBenchStrands, storeBenchRefLen-28, 32)
	refs := make([]dna.Strand, len(payloads))
	for i, p := range payloads {
		idx := make([]byte, 8)
		for k := range idx {
			idx[k] = "ACGT"[i>>(2*k)&3]
		}
		refs[i] = dna.Strand(primer + string(idx) + string(p))
	}
	return refs
}

// storeBenchChannel is the store rows' read channel: naive, at 4%
// Nanopore-mix error.
func storeBenchChannel() channel.Channel {
	return channel.NewNaive("store", channel.NanoporeMix(0.04))
}

// greedyStoreBenchPool returns a key-value get's clustering input: the
// store-shaped strands read at exactly 14x through storeBenchChannel and
// shuffled into one 672-read pool. It is the cluster package's store
// golden pool, seeds included, and ignores -seed: under these seeds the
// primer's k-mers are among nearly every read's minimizers, so every read
// is a candidate for nearly every cluster, where other seeds give a
// sparse pool an order faster.
func greedyStoreBenchPool() []dna.Strand {
	sim := channel.Simulator{Channel: storeBenchChannel(), Coverage: channel.FixedCoverage(14)}
	return sim.Simulate("store", storeBenchRefs(), 33).AllReads(rng.New(34))
}

// prefixBenchPair returns the first store-shaped strand and a read of the
// second through storeBenchChannel: the same 20-nt primer, then a
// different index and payload. Like greedyStoreBenchPool it ignores -seed.
func prefixBenchPair() (string, string) {
	refs := storeBenchRefs()
	read := channel.Transmit(storeBenchChannel(), refs[1], rng.New(35))
	return string(refs[0]), string(read)
}

// profileBenchDataset returns the evaluate loop's profiling input: a
// wetlab.DefaultConfig-shaped dataset cut to 300 clusters.
func profileBenchDataset(seed uint64) *dataset.Dataset {
	cfg := wetlab.DefaultConfig()
	cfg.NumClusters, cfg.Seed = 300, seed
	return wetlab.MustGenerate(cfg)
}

// reconBenchClusters is the number of clusters recon.iterative/cov6
// reconstructs per op.
const reconBenchClusters = 100

// reconBenchDataset returns reconBenchClusters 110-nt references with 6
// reads each under 6% equal-mix noise.
func reconBenchDataset(seed uint64) *dataset.Dataset {
	refs := channel.RandomReferences(reconBenchClusters, 110, seed)
	sim := channel.Simulator{Channel: channel.NewNaive("bench-recon", channel.EqualMix(0.06)), Coverage: channel.FixedCoverage(6)}
	return sim.Simulate("bench-recon", refs, seed+1)
}

// benchSink keeps the compiler from discarding a measured call's result.
var benchSink int

// noisyBenchPair returns a seeded 110-nt reference and one read of it
// through a naive channel at 6% Nanopore-mix error.
func noisyBenchPair(seed uint64) (string, string) {
	ref := channel.RandomReferences(1, 110, seed)[0]
	read := channel.Transmit(channel.NewNaive("bench", channel.NanoporeMix(0.06)), ref, rng.New(seed))
	return string(ref), string(read)
}

// benchDistanceAtMost measures align.DistanceAtMost on one pair at the
// clustering threshold, a quarter of the reference length.
func benchDistanceAtMost(b *testing.B, ref, read string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := align.DistanceAtMost(ref, read, len(ref)/4)
		benchSink += d
	}
}

// benchScript measures align.AppendScript on one pair under the
// deterministic tie-break into a reused buffer, as the profiler and
// Iterative call it.
func benchScript(b *testing.B, ref, read string) {
	ops := align.AppendScript(nil, ref, read, align.ScriptOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops = align.AppendScript(ops[:0], ref, read, align.ScriptOptions{})
		benchSink += len(ops)
	}
}

// benchAppendTransmit measures one channel's AppendTransmit steady state:
// reference decoded once, output buffer and RNG batch reused from a
// per-worker Scratch, exactly as simulation workers drive it.
func benchAppendTransmit(b *testing.B, ch channel.Channel, refLen int, seed uint64) {
	ref := channel.RandomReferences(1, refLen, seed)[0]
	r := rng.New(seed)
	var scr channel.Scratch
	codes := scr.RefBases(ref)
	// Warm outside the timer: plan compilation and output-buffer growth are
	// one-time costs, not steady state.
	dst := ch.AppendTransmit(nil, codes, r, &scr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ch.AppendTransmit(dst[:0], codes, r, &scr)
	}
}

// measure runs one workload under testing.Benchmark.
func measure(w benchWorkload, seed uint64) (benchResult, error) {
	var res testing.BenchmarkResult
	if w.run != nil {
		res = testing.Benchmark(func(b *testing.B) { w.run(b, seed) })
	} else {
		refs := channel.RandomReferences(w.clusters, w.refLen, seed)
		sim := w.simulate()
		// Warm once outside the measurement so one-time setup (page faults,
		// plan compilation) doesn't pollute the first iteration.
		sim.Simulate("bench", refs, seed)

		res = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim.Simulate("bench", refs, seed)
			}
		})
	}
	if res.N == 0 {
		return benchResult{}, fmt.Errorf("benchmark %s did not run", w.name)
	}
	if w.zeroAlloc && res.AllocsPerOp() != 0 {
		return benchResult{}, fmt.Errorf("%s: %d allocs/op on a path that must not allocate", w.name, res.AllocsPerOp())
	}
	return benchResult{
		Name:           w.name,
		Clusters:       w.clusters,
		RefLen:         w.refLen,
		Coverage:       w.coverage,
		Iterations:     res.N,
		NsPerOp:        res.NsPerOp(),
		ClustersPerSec: float64(w.clusters) / (time.Duration(res.NsPerOp()) * time.Nanosecond).Seconds(),
		AllocsPerOp:    res.AllocsPerOp(),
		BytesPerOp:     res.AllocedBytesPerOp(),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
	}, nil
}

// measureAll runs every workload once.
func measureAll(seed uint64) ([]benchResult, error) {
	runs, err := measureRounds(seed, 1)
	if err != nil {
		return nil, err
	}
	out := make([]benchResult, len(runs))
	for i, r := range runs {
		out[i] = r[0]
	}
	return out, nil
}

// measureRounds measures every workload rounds times, one round over all
// workloads after another, so that a stretch of machine drift spreads
// over every row instead of landing on the runs of one. runs[w][r] is
// workload w in round r.
func measureRounds(seed uint64, rounds int) ([][]benchResult, error) {
	workloads := benchWorkloads()
	runs := make([][]benchResult, len(workloads))
	for round := 0; round < rounds; round++ {
		for i, w := range workloads {
			r, err := measure(w, seed)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "dnabench: %s (round %d/%d): %d iterations, %.0f clusters/s, %d allocs/op\n",
				r.Name, round+1, rounds, r.Iterations, r.ClustersPerSec, r.AllocsPerOp)
			runs[i] = append(runs[i], r)
		}
	}
	return runs, nil
}

// compareRounds is how many interleaved rounds -compare measures each
// workload in. One run of a row can land on a stretch where the machine
// is busy; the median of five moves only when three of them do.
const compareRounds = 5

// medianRun returns the run with the median ns/op (the lower middle one
// for an even count), and the fastest and slowest ns/op, the spread the
// report prints. The gate compares the median run, allocs/op included.
func medianRun(runs []benchResult) (med benchResult, minNs, maxNs int64) {
	sorted := slices.Clone(runs)
	slices.SortStableFunc(sorted, func(a, b benchResult) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
	return sorted[(len(sorted)-1)/2], sorted[0].NsPerOp, sorted[len(sorted)-1].NsPerOp
}

// runJSONBench measures the hot paths and writes BENCH_sim.json to path.
func runJSONBench(path string, seed uint64) error {
	results, err := measureAll(seed)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dnabench: wrote %d measurements -> %s\n", len(results), path)
	return nil
}

// loadBaseline reads a BENCH_sim.json: an array of workload results.
func loadBaseline(path string) ([]benchResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []benchResult
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("%s: not a benchmark baseline array: %w", path, err)
	}
	return list, nil
}

// allocGrace is the absolute allocs/op slack the gate always allows: ±a
// few allocs on a small-count path is measurement jitter (pool misses,
// map growth timing), not a regression.
const allocGrace = 8

// allocRegressed reports whether current allocs/op regresses against
// baseline under the fractional tolerance. A positive baseline gates on
// the fraction, with allocGrace of absolute slack so ±1 alloc on a
// 10-alloc path doesn't flake the build. A zero baseline cannot express a
// fraction — and a zero-alloc path starting to allocate is exactly the
// regression the gate exists to catch, so dividing by it must not
// silently disable the gate — so it falls back to absolute growth beyond
// allocGrace.
func allocRegressed(baseline, current int64, tolerance float64) bool {
	if baseline <= 0 {
		return current > allocGrace
	}
	return float64(current-baseline)/float64(baseline) > tolerance && current-baseline > allocGrace
}

// compareBench measures every workload in compareRounds interleaved
// rounds, diffs each one's median run (ns/op and allocs/op) against the
// baseline at path, and renders a report with each row's ns/op spread.
// It returns an error listing every workload whose median ns/op regressed
// by more than tolerance (fractional, e.g. 0.15 = +15%), or whose
// allocs/op regressed per allocRegressed —
// allocation count is deterministic enough to gate tightly, and a
// regression there is usually a lost pooling or escape-analysis
// optimisation that ns/op noise can mask. Baseline entries with no
// current counterpart — and new workloads absent from the baseline — are
// reported but never fail the gate, so workloads can be added or retired
// without breaking the build.
func compareBench(baselinePath, reportPath string, tolerance float64, seed uint64) error {
	baseline, err := loadBaseline(baselinePath)
	if err != nil {
		return err
	}
	runs, err := measureRounds(seed, compareRounds)
	if err != nil {
		return err
	}
	base := make(map[string]benchResult, len(baseline))
	for _, b := range baseline {
		base[b.Name] = b
	}

	var report strings.Builder
	fmt.Fprintf(&report, "benchmark comparison vs %s (gate: median of %d interleaved runs >%+.0f%% ns/op, or allocs/op)\n\n",
		baselinePath, compareRounds, tolerance*100)
	fmt.Fprintf(&report, "%-40s %14s %14s %9s %12s %12s %9s  %s\n",
		"workload", "baseline ns/op", "median ns/op", "delta", "clusters/s", "allocs/op", "Δallocs", "min–max ns/op")
	var regressions []string
	for _, r := range runs {
		c, minNs, maxNs := medianRun(r)
		spread := fmt.Sprintf("%d–%d", minNs, maxNs)
		b, ok := base[c.Name]
		if !ok {
			fmt.Fprintf(&report, "%-40s %14s %14d %9s %12.0f %12d %9s  %s  (new workload, not gated)\n",
				c.Name, "-", c.NsPerOp, "-", c.ClustersPerSec, c.AllocsPerOp, "-", spread)
			continue
		}
		delta := float64(c.NsPerOp-b.NsPerOp) / float64(b.NsPerOp)
		verdict := ""
		if delta > tolerance {
			verdict = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %d -> %d ns/op (%+.1f%%)", c.Name, b.NsPerOp, c.NsPerOp, delta*100))
		}
		// Render the alloc delta fractionally when the baseline can express
		// one, absolutely when it is zero (0 -> N is an infinite fraction).
		allocCol := ""
		if b.AllocsPerOp > 0 {
			allocDelta := float64(c.AllocsPerOp-b.AllocsPerOp) / float64(b.AllocsPerOp)
			allocCol = fmt.Sprintf("%+8.1f%%", allocDelta*100)
		} else {
			allocCol = fmt.Sprintf("%+9d", c.AllocsPerOp-b.AllocsPerOp)
		}
		if allocRegressed(b.AllocsPerOp, c.AllocsPerOp, tolerance) {
			verdict = "  REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %d -> %d allocs/op (%s)", c.Name, b.AllocsPerOp, c.AllocsPerOp, strings.TrimSpace(allocCol)))
		}
		fmt.Fprintf(&report, "%-40s %14d %14d %+8.1f%% %12.0f %12d %s  %s%s\n",
			c.Name, b.NsPerOp, c.NsPerOp, delta*100, c.ClustersPerSec, c.AllocsPerOp, allocCol, spread, verdict)
		delete(base, c.Name)
	}
	for name := range base {
		fmt.Fprintf(&report, "%-40s  (baseline entry with no current measurement)\n", name)
	}

	if reportPath != "" {
		if err := os.WriteFile(reportPath, []byte(report.String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprint(os.Stderr, report.String())
	if len(regressions) > 0 {
		return fmt.Errorf("bench regression gate failed:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}
