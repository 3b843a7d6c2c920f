package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"dnastore/internal/channel"
	"dnastore/internal/dataset"
	"dnastore/internal/dna"
)

func TestCheckGetRejectsFlippedByte(t *testing.T) {
	want := []byte("object payload bytes")
	if err := checkGet("k", append([]byte(nil), want...), want); err != nil {
		t.Fatalf("identical bytes rejected: %v", err)
	}
	got := append([]byte(nil), want...)
	got[7] ^= 0x01
	if err := checkGet("k", got, want); err == nil {
		t.Fatal("a get with one flipped byte passed")
	}
}

func simulated(t *testing.T) ([]dna.Strand, *dataset.Dataset, []byte) {
	t.Helper()
	refs := channel.RandomReferences(20, 110, 3)
	sim := channel.Simulator{Channel: channel.NewNaive("n", channel.NanoporeMix(0.05)), Coverage: channel.FixedCoverage(4)}
	ds, err := sim.SimulateCtx(context.Background(), "t", refs, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return refs, ds, buf.Bytes()
}

func TestCheckSimulatedRejectsDroppedCluster(t *testing.T) {
	refs, ds, written := simulated(t)
	if err := checkSimulated(refs, ds, written); err != nil {
		t.Fatalf("intact dataset rejected: %v", err)
	}
	dropped := &dataset.Dataset{Name: ds.Name}
	dropped.Clusters = append(append(dropped.Clusters, ds.Clusters[:5]...), ds.Clusters[6:]...)
	if err := checkSimulated(refs, dropped, written); err == nil {
		t.Fatal("a dataset missing a cluster passed")
	}
	// The same drop in the serialised form breaks the round trip.
	var buf bytes.Buffer
	if err := dropped.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := checkSimulated(refs, ds, buf.Bytes()); err == nil {
		t.Fatal("a written dataset missing a cluster passed")
	}
}

func TestCheckServeResultRejectsBadChecksum(t *testing.T) {
	_, _, body := simulated(t)
	h := fnv.New64a()
	h.Write(body)
	sum := fmt.Sprintf("%016x", h.Sum64())
	if err := checkServeResult(body, sum, 20); err != nil {
		t.Fatalf("good result rejected: %v", err)
	}
	bad := []byte(sum)
	bad[0] ^= 0x01
	if err := checkServeResult(body, string(bad), 20); err == nil {
		t.Fatal("a result with a bad checksum passed")
	}
	if err := checkServeResult(body, sum, 21); err == nil {
		t.Fatal("a result with the wrong cluster count passed")
	}
}

func TestCheckEvaluate(t *testing.T) {
	_, ds, _ := simulated(t)
	refs := ds.References()
	if err := checkEvaluate(0.06, 0.059, ds, refs); err != nil {
		t.Fatalf("exact reconstructions rejected: %v", err)
	}
	if err := checkEvaluate(0.08, 0.059, ds, refs); err == nil {
		t.Fatal("a fitted rate 36% off passed")
	}
	short := append([]dna.Strand(nil), refs...)
	short[4] = short[4][:80]
	if err := checkEvaluate(0.06, 0.059, ds, short); err == nil {
		t.Fatal("an 80-base reconstruction of a 110-base design passed")
	}
	short[4] = refs[4][:109]
	if err := checkEvaluate(0.06, 0.059, ds, short); err != nil {
		t.Fatalf("a 109-base reconstruction broke the length contract: %v", err)
	}
	if got := lengthMisses(ds, short); got != 1 {
		t.Fatalf("lengthMisses = %d, want 1", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{4}, 90); got != 4 {
		t.Errorf("p90 of one sample = %g", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// fixedSpans is one operation: a parent with three children, plus a
// replay span.
var fixedSpans = []span{
	{Name: "store.put", ID: 1, Start: 0, End: 100, Items: 2, CPU: 150, Alloc: 64},
	{Name: "durable.save", ID: 2, Parent: 1, Start: 10, End: 30, Items: 4},
	{Name: "durable.save", ID: 3, Parent: 1, Start: 30, End: 50, Items: 4},
	{Name: "durable.load", ID: 4, Parent: 1, Start: 60, End: 70, Items: 1},
	{Name: "align.script", ID: 5, Start: 200, End: 240, Items: 8, Replay: true},
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes(fixedSpans)
	want := []int64{50, 20, 20, 10, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got[i], want[i])
		}
	}
	self, rem := coverage(fixedSpans, 120)
	if self != 100 || rem != 20 {
		t.Errorf("coverage = self %d + remainder %d, want 100 + 20 (replay excluded)", self, rem)
	}
	// Overlapping children count once; parts outside the parent not at all.
	if got := covered(0, 100, [][2]int64{{10, 30}, {20, 50}, {90, 120}}); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
}

func TestLayerMetrics(t *testing.T) {
	agg := aggregate(fixedSpans)
	m := agg["store.put"].layerMetrics("store.put", 2)
	want := map[string]float64{
		"store.put.s":                50e-9,
		"store.put.items":            2,
		"store.put.items_per_s":      2 / 100e-9,
		"store.put.cpu_util":         0.75,
		"store.put.alloc_b_per_item": 32,
	}
	for k, v := range want {
		if math.Abs(m[k].Value-v) > 1e-9*math.Abs(v) {
			t.Errorf("%s = %g, want %g", k, m[k].Value, v)
		}
	}
	if agg["durable.save"].items != 8 || agg["durable.save"].self != 40 {
		t.Errorf("durable.save aggregate = %+v", *agg["durable.save"])
	}
	if !agg["align.script"].replay {
		t.Error("replay flag lost in aggregation")
	}
	if cpuUtil(100, 0, 2) != 0 {
		t.Error("cpu_util of an empty interval is not 0")
	}
}

// TestTracedCycleAddsUp runs one traced simulate cycle: its span self
// times plus the remainder equal its wall time.
func TestTracedCycleAddsUp(t *testing.T) {
	r, err := newSimulate(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tl, err := measure(r, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 || tl.attempted != 1 {
		t.Fatalf("cycle: %d of %d failed", tl.failed, tl.attempted)
	}
	spans := tr.recorded()
	if len(spans) != 2 || spans[0].Trace != spans[1].Trace {
		t.Fatalf("spans = %+v, want two sharing one trace ID", spans)
	}
	self, rem := coverage(spans, int64(tl.wall))
	if rem < 0 || self+rem != int64(tl.wall) {
		t.Fatalf("self %d + remainder %d != wall %d", self, rem, tl.wall)
	}
}

// TestServeCycle runs one traced serve cycle: two callers share the
// client, the transport and the tallies, so run it under -race.
func TestServeCycle(t *testing.T) {
	r, err := newServe(5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	c := r.cycle(newTracer(), 0)
	if c.failed != 0 || c.attempted != serveRound {
		t.Fatalf("cycle: %d of %d failed: %v", c.failed, c.attempted, c.errs)
	}
	counts := r.counts()
	if counts["server.replays"] == 0 || counts["server.shed"] != 0 {
		t.Errorf("counts = %v, want replays and no sheds", counts)
	}
}
