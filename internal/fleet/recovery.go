package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"dnastore/internal/server"
)

// Boot-time recovery: replay the write-ahead ledger and restore every job
// the previous process life promised a client. This runs synchronously
// inside New, before any listener can bind the coordinator — a client that
// was mid-poll when the old process died must find its job ID answering
// again, never a permanent 404 (which internal/client rightly treats as a
// permanent error, not a retryable one).
//
// The replay state machine, per ledger file:
//
//	unreadable header / no accepted frame  → delete (202 never committed)
//	finished failed|canceled               → restore the terminal verdict
//	finished done                          → rebuild result from spill, or
//	                                         re-adopt and recompute
//	accepted, not finished (in-flight)     → re-adopt: re-run the job
//
// Re-adoption is cheap by construction: shard results are content-addressed,
// so everything the old process spilled comes back as spill hits, and a
// worker still computing a shard replays the running job via the derived
// Idempotency-Key instead of starting a duplicate.
func (c *Coordinator) recover() {
	recs, err := c.ledger.replay()
	if err != nil {
		c.slog.Error("ledger replay failed; starting with empty job state", "error", err)
		return
	}
	var adopted, restored int
	for _, rec := range recs {
		c.metrics.ledgerReplays.Inc()
		if c.adoptRecord(rec) {
			adopted++
		} else {
			restored++
		}
	}
	if len(recs) > 0 {
		c.slog.Info("ledger replayed", "jobs", len(recs),
			"re_adopted", adopted, "restored_terminal", restored)
	}
}

// adoptRecord turns one replayed ledger record back into a live job under
// its old ID and Idempotency-Key. Reports whether the job was re-adopted
// (re-run) as opposed to restored in a terminal state. Recovery runs
// before the coordinator is reachable, so no client observes a job before
// its fate is decided.
func (c *Coordinator) adoptRecord(rec *ledgerRecord) bool {
	a := rec.accepted
	r := &run{job: c.Adopt(a.ID, a.Key, a.Spec, time.UnixMilli(a.CreatedUnixMS)), led: rec.led}
	rerun := false
	switch {
	case a.Spec.Validate() != nil:
		// The spec round-tripped through JSON and no longer validates —
		// a hand-edited or version-skewed ledger. The honest verdict is an
		// explicit failure under the old ID, not a silent drop.
		err := fmt.Errorf("fleet: recovered spec no longer validates: %w", a.Spec.Validate())
		c.slog.Warn("recovered job failed validation", "job", a.ID, "error", err)
		c.settleRecovered(r, server.StateFailed, nil, err)
	case rec.finished == nil:
		// In-flight at the crash (or parked by a drain): re-adopt.
		rerun = true
	case rec.finished.State == string(server.StateFailed) ||
		rec.finished.State == string(server.StateCanceled):
		var err error
		if rec.finished.Error != "" {
			err = errors.New(rec.finished.Error)
		}
		c.settleRecovered(r, server.JobState(rec.finished.State), nil, err)
	case rec.finished.State == string(server.StateDone):
		if c.restoreDone(r, a.ShardClusters) {
			c.slog.Info("job restored from spill", "job", a.ID)
		} else {
			// The spill no longer holds every shard (GC, bit rot, or a
			// non-simulate kind). Determinism makes recomputation safe:
			// the re-run produces the same bytes the client was promised.
			rerun = true
		}
	default:
		c.slog.Warn("recovered job carries unknown terminal state; re-running",
			"job", a.ID, "state", rec.finished.State)
		rerun = true
	}
	if !rerun {
		c.mu.Lock()
		c.runs[a.ID] = r
		c.mu.Unlock()
		return false
	}
	c.metrics.recovered.Inc()
	r.led.replayed()
	c.slog.Info("job re-adopted from ledger", "job", a.ID, "kind", string(a.Spec.Kind))
	c.start(r)
	return true
}

// settleRecovered pins a recovered job to a terminal state without
// re-counting it in the finished metrics — it finished in a previous
// process life; this life merely remembers the verdict.
func (c *Coordinator) settleRecovered(r *run, state server.JobState, data []byte, err error) {
	r.job.Restore(state, data, err)
	r.led.close()
	if r.led != nil {
		c.ledger.retire(r.led.path)
	}
}

// restoreDone rebuilds a finished simulate job's merged result purely from
// the spill store: re-derive the shard plan recorded at admission, read
// every shard back, merge in range order. Succeeds only when every shard is
// present — a single gap falls back to re-adoption, because a partially
// restored result would not be the bytes the client was promised.
//
// Shards read back also seed the memory cache, so even a failed restore
// leaves the subsequent re-run mostly cache-warm.
func (c *Coordinator) restoreDone(r *run, shardClusters int) bool {
	if c.spill == nil || r.job.Spec.Kind != server.KindSimulate || r.job.Spec.Simulate == nil {
		return false
	}
	spec := *r.job.Spec.Simulate
	if spec.ClusterFirst != 0 || spec.ClusterCount != 0 {
		return false
	}
	if err := spec.Validate(); err != nil {
		return false
	}
	if shardClusters <= 0 {
		shardClusters = c.cfg.ShardClusters
	}
	shards := shardsOf(spec, shardClusters)
	rep := Report{TotalClusters: spec.NumClusters(), Shards: make([]ShardStatus, len(shards))}
	var buf bytes.Buffer
	for i, sh := range shards {
		data, ok := c.spill.get(sh.key)
		if !ok {
			return false
		}
		c.cache.seed(sh.key, data)
		buf.Write(data)
		rep.Shards[i] = ShardStatus{Index: sh.index, First: sh.first, Count: sh.count, CacheHit: true}
		rep.CacheHits++
		c.metrics.cacheHits.Inc()
		c.metrics.shardsDone.Inc()
	}
	r.report = rep
	c.settleRecovered(r, server.StateDone, buf.Bytes(), nil)
	return true
}
