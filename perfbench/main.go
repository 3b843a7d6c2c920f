// Command perfbench is the end-to-end benchmark of the write–store–read
// path: encode → channel → cluster → reconstruct → decode, driven through
// the repository's public Go APIs from one process. See README.md for the
// workloads, metrics and the layer→metric map.
//
//	perfbench --workload simulate|evaluate|store|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it sets the workload up several times (setup_s is the
// median), then measures for S seconds and prints the end-to-end metrics.
// With --trace 1 it measures S/2 seconds untraced and S/2 seconds with
// spans recorded around every call into a layer, then runs the replay
// probes, and prints the per-layer metrics. The last line of standard
// output is always one JSON object: {correct, attempted, failed, metrics}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// cycleResult is what one measured cycle of a workload reports.
type cycleResult struct {
	wall      time.Duration   // the timed part of the cycle (output checks excluded)
	items     int             // clusters carried (the clusters_per_s numerator)
	lat       []time.Duration // latencies of the workload's unit operation
	attempted int             // operations whose outputs were checked
	failed    int             // operations whose output check failed
	errs      []error         // the failures, for standard error
}

// runner is one set-up workload.
type runner interface {
	// cycle runs one measured cycle; tr is nil when untraced. n numbers
	// the cycle and seeds its inputs.
	cycle(tr *tracer, n int) cycleResult
	// callers is how many operations run concurrently in a cycle; the
	// traced wall time is counted per caller.
	callers() int
	// replay re-runs single layers on inputs captured from the last cycle,
	// as replay spans.
	replay(tr *tracer) error
	// counts returns the workload's per-layer counts and ratios,
	// accumulated over its traced cycles.
	counts() map[string]float64
	// close releases the workload's resources.
	close() error
}

// workloads maps a name to its set-up function; dir is a private scratch
// directory inside the checkout.
var workloads = map[string]func(seed uint64, dir string) (runner, error){
	"simulate": newSimulate,
	"evaluate": newEvaluate,
	"store":    newStore,
	"serve":    newServe,
}

// setupReps is how many times a --trace 0 run sets its workload up.
const setupReps = 5

// spanNames lists every span the workloads and replay probes record, so
// each traced run prints the same per-layer metric set (a layer a
// workload never enters reads 0).
var spanNames = []string{
	"channel.simulate", "dataset.write", "dataset.read", "profile.profile",
	"cluster.greedy", "cluster.assign", "recon.bma", "recon.iterative",
	"store.put", "durable.save", "durable.load", "channel.sequence", "store.get",
	"client.submit", "client.await", "client.result",
	"align.script", "align.distance_at_most", "codec.select_amplify",
	"recon.twoway", "codec.decode",
}

// countUnits lists the per-workload counts and ratios with their units.
var countUnits = map[string]string{
	"cluster.fragmentation":            "ratio",
	"cluster.assigned_frac":            "ratio",
	"recon.bma.perfect_frac":           "ratio",
	"recon.iterative.perfect_frac":     "ratio",
	"recon.bma.length_miss_frac":       "ratio",
	"recon.iterative.length_miss_frac": "ratio",
	"store.get.selected_frac":          "ratio",
	"store.get.clusters_per_strand":    "ratio",
	"store.get.repaired":               "count",
	"store.get.unrecovered":            "count",
	"server.queue_wait_s":              "s",
	"server.attempt_s":                 "s",
	"server.replays":                   "count",
	"server.shed":                      "count",
	"server.requeues":                  "count",
	"client.retries":                   "count",
}

// traceDir is where a traced run writes its spans.
const traceDir = ".bench_build/traces"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: simulate, evaluate, store or serve")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *secs, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, secs float64, traced bool) error {
	setup, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if secs <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	// Two processors at most, so runs are comparable across machines.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "work-"+name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%t GOMAXPROCS=%d\n",
		name, seed, secs, traced, runtime.GOMAXPROCS(0))

	var res result
	if traced {
		res, err = runTraced(name, setup, seed, secs, dir)
	} else {
		res, err = runTimed(setup, seed, secs, dir)
	}
	if err != nil {
		return err
	}
	printResult(res)
	return nil
}

// tally accumulates cycles.
type tally struct {
	wall              time.Duration
	items             int
	lat               []time.Duration
	attempted, failed int
	cycles            int
	peakMB            []float64 // each cycle's peak resident set
	cpu               int64     // process CPU nanoseconds over all cycles
}

// measure runs cycles until d has elapsed (at least one).
func measure(r runner, tr *tracer, d time.Duration) (tally, error) {
	t := tally{cpu: processCPU()}
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < d; n++ {
		if err := resetPeakRSS(); err != nil {
			return t, fmt.Errorf("resetting the peak RSS mark: %w", err)
		}
		c := r.cycle(tr, n)
		peak, err := cyclePeakRSSMB()
		if err != nil {
			return t, err
		}
		t.peakMB = append(t.peakMB, peak)
		t.wall += c.wall
		t.items += c.items
		t.lat = append(t.lat, c.lat...)
		t.attempted += c.attempted
		t.failed += c.failed
		t.cycles++
		for i, err := range c.errs {
			if i == 3 {
				fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures in cycle %d\n", len(c.errs)-i, n)
				break
			}
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
		}
	}
	t.cpu = processCPU() - t.cpu
	return t, nil
}

func (t tally) clustersPerS() float64 {
	if t.wall <= 0 {
		return 0
	}
	return float64(t.items) / t.wall.Seconds()
}

// runTimed is the --trace 0 run: repeated set-up, then the untraced
// measurement.
func runTimed(setup func(uint64, string) (runner, error), seed uint64, secs float64, dir string) (result, error) {
	var setups []float64
	var r runner
	for i := 0; i < setupReps; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return result{}, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if r, err = setup(seed, dir); err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t, err := measure(r, nil, time.Duration(secs*float64(time.Second)))
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	lat := millis(t.lat)
	fmt.Printf("setup runs %v s; %d cycles, %d ops, %d items in %.3f s timed; %.3f CPU s\n",
		setups, t.cycles, len(t.lat), t.items, t.wall.Seconds(), float64(t.cpu)/1e9)
	fmt.Printf("failed_op_frac = %g (%d of %d)\n", ratio(float64(t.failed), float64(t.attempted)), t.failed, t.attempted)
	return result{
		Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: map[string]metric{
			"setup_s":        {percentile(setups, 50), "s"},
			"clusters_per_s": {t.clustersPerS(), "1/s"},
			"peak_rss_mb":    {percentile(t.peakMB, 50), "MB"},
			"op_p50_ms":      {percentile(lat, 50), "ms"},
			"op_p90_ms":      {percentile(lat, 90), "ms"},
		},
	}, nil
}

// runTraced is the --trace 1 run: half the time untraced, half traced,
// then the replay probes; it prints per-layer metrics and writes the spans.
func runTraced(name string, setup func(uint64, string) (runner, error), seed uint64, secs float64, dir string) (result, error) {
	r, err := setup(seed, dir)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	half := time.Duration(secs * float64(time.Second) / 2)
	plain, err := measure(r, nil, half)
	tr := newTracer()
	var traced tally
	if err == nil {
		traced, err = measure(r, tr, half)
	}
	workSpans := tr.recorded()
	if err == nil {
		if err = r.replay(tr); err != nil {
			err = fmt.Errorf("replay: %w", err)
		}
	}
	if err != nil {
		r.close()
		return result{}, err
	}
	spans := tr.recorded()
	counts := r.counts()
	if err := r.close(); err != nil {
		return result{}, err
	}

	m := map[string]metric{}
	agg := aggregate(spans)
	for _, n := range spanNames {
		ls := agg[n]
		if ls == nil {
			ls = &layerStats{}
		}
		for k, v := range ls.layerMetrics(n, runtime.GOMAXPROCS(0)) {
			m[k] = v
		}
	}
	for k := range agg {
		if !slices.Contains(spanNames, k) {
			return result{}, fmt.Errorf("span %q is not in the per-layer metric list", k)
		}
	}
	for n, unit := range countUnits {
		m[n] = metric{counts[n], unit}
	}
	for k := range counts {
		if _, ok := countUnits[k]; !ok {
			return result{}, fmt.Errorf("count %q is not in the per-layer metric list", k)
		}
	}
	wallNS := int64(traced.wall) * int64(r.callers())
	selfNS, remNS := coverage(workSpans, wallNS)
	m["trace.wall_s"] = metric{float64(wallNS) / 1e9, "s"}
	m["trace.remainder_s"] = metric{float64(remNS) / 1e9, "s"}
	m["trace.clusters_per_s_untraced"] = metric{plain.clustersPerS(), "1/s"}
	m["trace.clusters_per_s_traced"] = metric{traced.clustersPerS(), "1/s"}

	fmt.Printf("traced wall %.3f s (%d callers) = span self time %.3f s + remainder %.3f s\n",
		float64(wallNS)/1e9, r.callers(), float64(selfNS)/1e9, float64(remNS)/1e9)
	fmt.Printf("tracing overhead: clusters_per_s %.1f traced vs %.1f untraced\n",
		traced.clustersPerS(), plain.clustersPerS())
	fmt.Printf("%-32s %10s %10s %12s %8s %14s\n", "layer", "self_s", "items", "items/s", "cpu", "alloc_B/item")
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ls := agg[n]
		lm := ls.layerMetrics(n, runtime.GOMAXPROCS(0))
		label := n
		if ls.replay {
			label += " (replay)"
		}
		fmt.Printf("%-32s %10.4f %10d %12.1f %8.3f %14.1f\n", label, lm[n+".s"].Value, ls.items,
			lm[n+".items_per_s"].Value, lm[n+".cpu_util"].Value, lm[n+".alloc_b_per_item"].Value)
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err := tr.writeFile(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("%d spans written to %s\n", len(spans), path)
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	fmt.Printf("failed_op_frac = %g (%d of %d)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
	return result{
		Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: m,
	}, nil
}

// printResult prints every metric by name with its unit, then the JSON
// result line.
func printResult(res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %s = %g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	// JSON has no NaN: a percentile of no samples (every operation failed
	// before timing) is written as 0.
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Metrics[k] = metric{0, v.Unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
