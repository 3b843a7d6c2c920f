package server

import (
	"fmt"

	"dnastore/internal/obs"
)

// The server's metric surface, all registered on one obs.Registry and
// served from GET /metrics inside the server's own mux (so the chaos
// drills scrape counters through the same handler operators do).
//
// Naming scheme (documented in DESIGN.md §10): everything is prefixed
// dnasimd_, counters end in _total, histograms in the unit (_seconds),
// and low-cardinality dimensions ride labels — shed reason, terminal
// outcome, breaker target state, job kind, pipeline stage.
type serverMetrics struct {
	reg *obs.Registry

	kills       *obs.Counter
	requeues    *obs.Counter
	breakerTo   map[BreakerState]*obs.Counter
	attemptSecs *obs.Histogram
}

// newServerMetrics registers the worker pool's series and scrape-time
// gauges; the job counters shared with the fleet live on the Frontend.
func newServerMetrics(s *Server, reg *obs.Registry) *serverMetrics {
	m := &serverMetrics{reg: reg}
	m.kills = reg.Counter("dnasimd_watchdog_kills_total",
		"Attempts killed by the stall watchdog for lack of cluster progress.")
	m.requeues = reg.Counter("dnasimd_job_requeues_total",
		"Supervised requeues after a failed or killed attempt.")
	brkHelp := "Circuit breaker state transitions, by target state."
	m.breakerTo = map[BreakerState]*obs.Counter{
		BreakerOpen:     reg.Counter(`dnasimd_breaker_transitions_total{to="open"}`, brkHelp),
		BreakerHalfOpen: reg.Counter(`dnasimd_breaker_transitions_total{to="half-open"}`, brkHelp),
		BreakerClosed:   reg.Counter(`dnasimd_breaker_transitions_total{to="closed"}`, brkHelp),
	}
	m.attemptSecs = reg.Histogram("dnasimd_attempt_seconds",
		"Latency of a single supervised execution attempt.", jobBuckets)

	// Scrape-time gauges read the live structures under their own locks.
	reg.GaugeFunc("dnasimd_queue_depth", "Jobs waiting in the admission queue.",
		func() float64 { return float64(s.queue.depth()) })
	reg.GaugeFunc("dnasimd_jobs_running", "Jobs currently executing on workers.",
		func() float64 { return float64(s.dog.runningCount()) })
	reg.GaugeFunc("dnasimd_breaker_open", "1 while the I/O circuit breaker is open.",
		func() float64 {
			if s.breaker.State() == BreakerOpen {
				return 1
			}
			return 0
		})
	return m
}

// observeStages folds one attempt's stage-timer account into the per-stage
// histograms and item counters. Stage series are registered lazily: the
// set of stages is small and bounded by the instrumented code, not by
// request content.
func (m *serverMetrics) observeStages(timings []obs.StageTiming) {
	for _, st := range timings {
		m.reg.Histogram(fmt.Sprintf(`dnasimd_stage_seconds{stage=%q}`, st.Stage),
			"Per-attempt wall time by pipeline stage.", jobBuckets).Observe(st.Wall.Seconds())
		if st.Items > 0 {
			m.reg.Counter(fmt.Sprintf(`dnasimd_stage_items_total{stage=%q}`, st.Stage),
				"Work items processed by pipeline stage (clusters, reads, strands).").Add(uint64(st.Items))
		}
	}
}
