package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one recorded call into a layer. Times are nanoseconds since the
// tracer's epoch; CPU is process CPU time (user+system, all threads) and
// Alloc is heap bytes allocated by the process while the span was open.
type span struct {
	Name   string `json:"name"`
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items"`
	CPU    int64  `json:"cpu_ns"`
	Alloc  uint64 `json:"alloc_b"`
	// Replay marks a probe span that re-runs a layer on inputs captured
	// from the workload; it never counts toward the workload's wall time.
	Replay bool `json:"replay,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workload code calls it
// unconditionally.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextID uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// scope names where a new span hangs: its trace (one per operation) and
// its parent span (0 for an operation's top-level spans).
type scope struct {
	trace  uint64
	parent uint64
	replay bool
}

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	t     *tracer
	s     span
	cpu   int64
	alloc uint64
}

// op starts a new operation: a fresh trace ID for the spans beneath it.
func (t *tracer) op() scope {
	if t == nil {
		return scope{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return scope{trace: t.nextID}
}

// replayOp is op for replay probes.
func (t *tracer) replayOp() scope {
	sc := t.op()
	sc.replay = true
	return sc
}

// begin opens a span named name under sc.
func (t *tracer) begin(sc scope, name string) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &openSpan{
		t: t,
		s: span{Name: name, Trace: sc.trace, ID: id, Parent: sc.parent,
			Replay: sc.replay, Start: int64(time.Since(t.epoch))},
		cpu:   processCPU(),
		alloc: heapAllocs(),
	}
}

// child returns the scope for spans nested inside o.
func (o *openSpan) child() scope {
	if o == nil {
		return scope{}
	}
	return scope{trace: o.s.Trace, parent: o.s.ID, replay: o.s.Replay}
}

// end closes the span, crediting it with items units of work.
func (o *openSpan) end(items int) {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.epoch))
	o.s.CPU = processCPU() - o.cpu
	o.s.Alloc = heapAllocs() - o.alloc
	o.s.Items = items
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// recorded returns a copy of the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.recorded() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// processCPU is the process's user+system CPU time in nanoseconds.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// resetPeakRSS restarts the kernel's peak-RSS mark for this process, so
// cyclePeakRSSMB reads the peak of what ran since.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cyclePeakRSSMB is the peak resident set size since the last
// resetPeakRSS, in MiB (VmHWM in /proc/self/status).
func cyclePeakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

// heapAllocs is the cumulative count of heap bytes the process allocated.
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	if allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample[0].Value.Uint64()
}

// selfTimes returns each span's own time: its duration minus the part of
// that interval covered by its children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(s.Start, s.End, children[i])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		a := max(iv[0], end)
		if iv[1] > a {
			total += iv[1] - a
			end = iv[1]
		}
	}
	return total
}

// layerStats aggregates every span of one name.
type layerStats struct {
	self, wall int64 // summed self and inclusive nanoseconds
	items      int
	cpu        int64
	alloc      uint64
	replay     bool
}

// aggregate folds spans into per-name totals.
func aggregate(spans []span) map[string]*layerStats {
	self := selfTimes(spans)
	out := make(map[string]*layerStats)
	for i, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStats{replay: s.Replay}
			out[s.Name] = ls
		}
		ls.self += self[i]
		ls.wall += s.End - s.Start
		ls.items += s.Items
		ls.cpu += s.CPU
		ls.alloc += s.Alloc
	}
	return out
}

// layerMetrics renders the five per-span numbers: self seconds, items,
// items per inclusive second, CPU utilisation over the inclusive wall time
// on procs processors, and allocated bytes per item.
func (ls *layerStats) layerMetrics(name string, procs int) map[string]metric {
	m := map[string]metric{
		name + ".s":                {float64(ls.self) / 1e9, "s"},
		name + ".items":            {float64(ls.items), "count"},
		name + ".items_per_s":      {0, "1/s"},
		name + ".cpu_util":         {cpuUtil(ls.cpu, ls.wall, procs), "ratio"},
		name + ".alloc_b_per_item": {0, "B"},
	}
	if ls.wall > 0 {
		m[name+".items_per_s"] = metric{float64(ls.items) / (float64(ls.wall) / 1e9), "1/s"}
	}
	if ls.items > 0 {
		m[name+".alloc_b_per_item"] = metric{float64(ls.alloc) / float64(ls.items), "B"}
	}
	return m
}

// cpuUtil is CPU time over wall time × processors, 0 for an empty interval.
func cpuUtil(cpuNS, wallNS int64, procs int) float64 {
	if wallNS <= 0 || procs <= 0 {
		return 0
	}
	return float64(cpuNS) / (float64(wallNS) * float64(procs))
}

// coverage sums the self time of the workload's own spans (replays
// excluded) and returns it with the remainder left unexplained in wallNS.
func coverage(spans []span, wallNS int64) (selfNS, remainderNS int64) {
	self := selfTimes(spans)
	for i, s := range spans {
		if !s.Replay {
			selfNS += self[i]
		}
	}
	return selfNS, wallNS - selfNS
}
