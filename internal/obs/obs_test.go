package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the `le` semantics: a value lands in
// the first bucket whose upper bound is ≥ the value (inclusive), and
// values beyond every bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "test", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 2.0001, 5.0, 7.5} {
		h.Observe(v)
	}
	got := h.BucketCounts()
	// ≤1: 0.5, 1.0 → 2; ≤2: 1.5, 2.0 → 2; ≤5: 2.0001, 5.0 → 2; +Inf: 7.5 → 1
	want := []uint64{2, 2, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if want := 0.5 + 1 + 1.5 + 2 + 2.0001 + 5 + 7.5; math.Abs(h.Sum()-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
}

// TestHistogramUnsortedBucketsAreSorted: construction must not depend on
// caller ordering.
func TestHistogramUnsortedBucketsAreSorted(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", "test", []float64{5, 1, 2})
	if b := h.Bounds(); b[0] != 1 || b[1] != 2 || b[2] != 5 {
		t.Fatalf("bounds = %v, want sorted", b)
	}
}

// TestConcurrentCounters hammers a counter and a histogram from many
// goroutines; run under -race this is the data-race gate, and the final
// values pin that no increment is lost.
func TestConcurrentCounters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "test")
	h := r.Histogram("obs_seconds", "test", []float64{0.5})
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if want := 0.25 * workers * per; math.Abs(h.Sum()-want) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

// TestRegisterSameSeriesReturnsSameMetric: registration is idempotent per
// full series name, and label blocks separate series within a family.
func TestRegisterSameSeriesReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	a := r.Counter(`shed_total{reason="full"}`, "test")
	b := r.Counter(`shed_total{reason="full"}`, "test")
	other := r.Counter(`shed_total{reason="draining"}`, "test")
	a.Inc()
	if b.Value() != 1 {
		t.Error("same series name did not return the same counter")
	}
	if other.Value() != 0 {
		t.Error("distinct label block shares a counter")
	}
}

// TestPrometheusRenderGolden locks the text rendering byte-for-byte: the
// format is a wire contract and its ordering must be deterministic.
func TestPrometheusRenderGolden(t *testing.T) {
	r := NewRegistry()
	// Register deliberately out of name order: rendering must sort.
	r.Counter(`jobs_shed_total{reason="queue_full"}`, "Jobs shed at admission.").Add(3)
	r.Counter(`jobs_shed_total{reason="draining"}`, "Jobs shed at admission.").Add(1)
	r.GaugeFunc("queue_depth", "Current queue depth.", func() float64 { return 4 })
	r.GaugeFunc("breaker_open", "1 while the breaker is open.", func() float64 { return 0 })
	h := r.Histogram("job_seconds", "Job latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 3, 30} {
		h.Observe(v)
	}
	r.Counter("jobs_submitted_total", "Jobs admitted.").Add(9)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "render.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("rendering differs from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
	// Rendering twice must be byte-identical (stable ordering).
	var again bytes.Buffer
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renderings of the same registry differ")
	}
}

// TestSnapshot covers the test-facing accessor.
func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "t").Add(2)
	r.GaugeFunc("f", "t", func() float64 { return 7 })
	r.Histogram("h_seconds", "t", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	for name, want := range map[string]float64{
		"c_total": 2, "f": 7, "h_seconds_count": 1, "h_seconds_sum": 0.5,
	} {
		if snap[name] != want {
			t.Errorf("snapshot[%q] = %v, want %v", name, snap[name], want)
		}
	}
}

// TestMetricsHandler scrapes the HTTP handler end to end.
func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "t").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "up_total 1") {
		t.Errorf("body missing series:\n%s", rec.Body.String())
	}
}

// TestStageTimer covers accumulation, throughput, nil-safety and the
// context plumbing.
func TestStageTimer(t *testing.T) {
	st := NewStageTimer()
	st.Record("channel.simulate", 2*time.Second, 100)
	st.Record("channel.simulate", 2*time.Second, 100)
	st.Record("store.decode", 500*time.Millisecond, 0)
	snap := st.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot len = %d, want 2", len(snap))
	}
	// Sorted by stage name.
	if snap[0].Stage != "channel.simulate" || snap[1].Stage != "store.decode" {
		t.Errorf("snapshot order = %v", snap)
	}
	sim := snap[0]
	if sim.Wall != 4*time.Second || sim.Items != 200 || sim.Calls != 2 {
		t.Errorf("accumulated = %+v", sim)
	}
	if got := sim.PerSecond(); math.Abs(got-50) > 1e-9 {
		t.Errorf("throughput = %v, want 50", got)
	}
	if s := st.Summary(); !strings.Contains(s, "channel.simulate") || !strings.Contains(s, "50.0/s") {
		t.Errorf("summary = %q", s)
	}

	// Context round-trip.
	ctx := WithTimer(context.Background(), st)
	if TimerFrom(ctx) != st {
		t.Error("TimerFrom did not return the attached timer")
	}
	// Start/stop records wall time.
	stop := TimerFrom(ctx).Start("recon.bma")
	stop(10)
	if got := st.Snapshot(); len(got) != 3 {
		t.Errorf("after Start/stop: %d stages, want 3", len(got))
	}

	// Nil receiver: every method is a no-op, no panic.
	var nilTimer *StageTimer
	nilTimer.Record("x", time.Second, 1)
	nilTimer.Start("x")(1)
	if nilTimer.Snapshot() != nil || nilTimer.Summary() != "" {
		t.Error("nil timer not empty")
	}
	if tm := TimerFrom(context.Background()); tm != nil {
		t.Error("TimerFrom on bare context not nil")
	}
}

// TestStageTimerConcurrent hammers Record under -race.
func TestStageTimerConcurrent(t *testing.T) {
	st := NewStageTimer()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				st.Record("stage", time.Millisecond, 1)
			}
		}()
	}
	wg.Wait()
	if got := st.Snapshot()[0]; got.Items != 4000 || got.Calls != 4000 {
		t.Errorf("concurrent accumulation = %+v, want 4000 items/calls", got)
	}
}

// TestLoggerSetup checks the shared slog helper: level filtering, format
// selection and the component attribute.
func TestLoggerSetup(t *testing.T) {
	var buf bytes.Buffer
	log := (&LogOptions{Level: "warn", Format: "json", Output: &buf}).Logger("dnatest")
	log.Info("dropped")
	log.Warn("kept", "job", "j000001")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line: %v (%q)", err, buf.String())
	}
	if rec["component"] != "dnatest" || rec["job"] != "j000001" || rec["msg"] != "kept" {
		t.Errorf("record = %v", rec)
	}
	if strings.Contains(buf.String(), "dropped") {
		t.Error("level filter did not drop info below warn")
	}

	// Flag registration wires the same options.
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	opts := LogFlags(fs)
	if err := fs.Parse([]string{"-log-level", "debug", "-log-format", "json"}); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	opts.Output = &buf2
	opts.Logger("flagged").Debug("visible")
	if !strings.Contains(buf2.String(), `"visible"`) {
		t.Errorf("debug level not honored: %q", buf2.String())
	}
}

// TestConcurrentLazyRegistration: many goroutines registering the same
// not-yet-existing series must converge on one payload. The lazy
// per-stage counters are registered from every worker concurrently; if
// the payload were installed after the series is published, two racing
// registrants could each create a counter and one side's increments
// would vanish.
func TestConcurrentLazyRegistration(t *testing.T) {
	r := NewRegistry()
	const workers, per = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter(`lazy_total{stage="x"}`, "test").Inc()
				r.Histogram(`lazy_seconds{stage="x"}`, "test", []float64{0.5}).Observe(0.1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter(`lazy_total{stage="x"}`, "test").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d (a racing registration dropped increments)", got, workers*per)
	}
	if got := r.Histogram(`lazy_seconds{stage="x"}`, "test", nil).Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}
