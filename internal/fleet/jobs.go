package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dnastore/internal/client"
	"dnastore/internal/server"
)

// The coordinator is the shard-scheduler Executor behind the shared
// server.Frontend, so clients and dnaload drive a fleet exactly like one
// dnasimd instance. Simulate jobs fan out across the fleet; retrieve jobs
// pass through to one node picked by rendezvous on the spec fingerprint.

// shedLedger is the shed reason for an admission the ledger could not
// commit.
const shedLedger = "ledger_error"

// run is the coordinator's side of one front-end job: its write-ahead
// ledger (nil without a DataDir) and, once terminal, its shard report.
type run struct {
	job *server.Job
	led *jobLedger
	// report is written before the job's terminal transition and read only
	// after it, so the job's own lock orders the two.
	report Report
}

func (r *run) snapshot() server.Status { return r.job.Snapshot() }

// Admit journals a job and starts executing it across the fleet
// (server.Executor). With a ledger configured, the admission record — job
// ID, key, spec, shard plan — is fsynced while the front-end lock is held,
// before the client's 202 exists: a crash after Admit returns can forget
// nothing the client was promised.
func (c *Coordinator) Admit(j *server.Job, key string) error {
	if j.Spec.Kind == server.KindSimulate && (j.Spec.Simulate.ClusterFirst != 0 || j.Spec.Simulate.ClusterCount != 0) {
		return errors.New("fleet: invalid job: spec already carries a cluster range; the coordinator owns the split")
	}
	r := &run{job: j}
	if c.ledger != nil {
		led, err := c.ledger.create(ledgerAccepted{
			ID: j.ID, Key: key, CreatedUnixMS: j.Created.UnixMilli(),
			ShardClusters: c.cfg.ShardClusters, Spec: j.Spec,
		})
		if err != nil {
			// The write-ahead contract is absolute: no durable admission
			// record, no admission. A disk hiccup is transient, so the
			// client retries rather than believing a 202 the ledger cannot
			// back.
			c.slog.Error("admission refused: ledger write failed", "error", err)
			return &server.ShedError{Reason: shedLedger, Err: err}
		}
		r.led = led
	}
	c.start(r)
	return nil
}

// start records a run and executes it in its own goroutine.
func (c *Coordinator) start(r *run) {
	c.mu.Lock()
	c.runs[r.job.ID] = r
	c.mu.Unlock()
	c.jobWG.Add(1)
	go c.runJob(r)
}

// RetryEstimate is a short constant (server.Executor): the coordinator has
// no queue, and running short of eligible nodes clears on the order of
// probe ticks.
func (c *Coordinator) RetryEstimate() float64 { return 1 }

// Ready reports whether any node is eligible (server.Executor): with none,
// every shard would ride the last-resort placement path, so readiness
// honestly says no.
func (c *Coordinator) Ready() error {
	for _, n := range c.nodes {
		if n.eligible() {
			return nil
		}
	}
	return errors.New("no eligible nodes")
}

// NodeHealth is one node's entry in the /healthz payload.
type NodeHealth struct {
	Name     string              `json:"name"`
	Healthy  bool                `json:"healthy"`
	Breaker  server.BreakerState `json:"breaker"`
	Eligible bool                `json:"eligible"`
}

// FleetHealth is the coordinator's /healthz payload; per-node eligibility
// tells the real story.
type FleetHealth struct {
	Phase server.Phase `json:"phase"`
	Nodes []NodeHealth `json:"nodes"`
	Jobs  int          `json:"jobs"`
}

// Health returns the fleet-wide /healthz body (server.Executor).
func (c *Coordinator) Health(phase server.Phase, jobs int) any {
	h := FleetHealth{Phase: phase, Jobs: jobs}
	for _, n := range c.nodes {
		h.Nodes = append(h.Nodes, NodeHealth{
			Name: n.name, Healthy: n.healthy.Load(),
			Breaker: n.brk.State(), Eligible: n.eligible(),
		})
	}
	return h
}

// Mount adds GET /v1/jobs/{id}/report, the per-shard account of a finished
// simulate job — the erasure report a degraded completion promises its
// caller (server.Executor).
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		run, ok := c.job(r.PathValue("id"))
		if !ok {
			server.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
			return
		}
		st := run.snapshot()
		w.Header().Set("X-Job-State", string(st.State))
		if !st.State.Terminal() {
			server.WriteJSON(w, http.StatusConflict, st)
			return
		}
		server.WriteJSON(w, http.StatusOK, run.report)
	})
}

func (c *Coordinator) job(id string) (*run, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.runs[id]
	return r, ok
}

// runningJobs counts runs not yet terminal (the dnasimd_jobs_running
// gauge).
func (c *Coordinator) runningJobs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, r := range c.runs {
		if !r.job.State().Terminal() {
			n++
		}
	}
	return n
}

// runJob drives one admitted job to a terminal state — or, when a drain
// interrupts it, parks it: the job stays non-terminal in memory and in
// its ledger, which is precisely the record the next boot re-adopts.
func (c *Coordinator) runJob(r *run) {
	defer c.jobWG.Done()
	j := r.job
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	if ddl := j.Spec.Deadline(); !ddl.IsZero() {
		dctx, dcancel := context.WithDeadline(ctx, ddl)
		defer dcancel()
		ctx = dctx
	} else if j.Spec.TimeoutMS > 0 {
		tctx, tcancel := context.WithTimeout(ctx, time.Duration(j.Spec.TimeoutMS)*time.Millisecond)
		defer tcancel()
		ctx = tctx
	}
	if !j.Start(cancel) {
		// Canceled while queued: the front end settled the job; the ledger
		// records the same verdict.
		c.retire(r, j.Snapshot())
		return
	}

	var data []byte
	var rep Report
	var err error
	switch j.Spec.Kind {
	case server.KindSimulate:
		data, rep, err = c.simulateJob(ctx, *j.Spec.Simulate, r.led)
	case server.KindRetrieve:
		data, err = c.passthrough(ctx, j.Spec)
	default:
		err = fmt.Errorf("fleet: unsupported job kind %q", j.Spec.Kind)
	}

	if err != nil && errors.Is(context.Cause(ctx), errDrainStop) {
		// Drain told the job to park, not to die: no terminal transition,
		// no terminal ledger frame. Workers keep computing their shards;
		// the restarted coordinator re-adopts the job from its ledger and
		// collects what finished in the meantime.
		c.slog.Info("job parked for restart-resume", "job", j.ID)
		return
	}

	state := server.StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled) || errors.Is(context.Cause(ctx), server.ErrCanceledByClient):
		state, data = server.StateCanceled, nil
	default:
		state, data = server.StateFailed, nil
	}
	r.report = rep
	if c.Finish(j, state, data, err) {
		c.retire(r, j.Snapshot())
	}
}

// retire journals a terminal verdict (fsynced), closes the ledger and
// hands it to FIFO pruning.
func (c *Coordinator) retire(r *run, st server.Status) {
	r.led.finish(st.State, st.Error)
	if r.led != nil {
		c.ledger.retire(r.led.path)
	}
}

// passthrough runs a non-shardable job on one node, picked by rendezvous
// on the job fingerprint so repeated submissions land on the same node's
// caches and journals. Failed placements retry on the next-ranked node.
func (c *Coordinator) passthrough(ctx context.Context, spec server.JobSpec) ([]byte, error) {
	ranked := rank(c.nodes, spec.Fingerprint())
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxShardAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		n := ranked[attempt%len(ranked)]
		if !n.eligible() && attempt < c.cfg.MaxShardAttempts-1 {
			continue
		}
		res := n.cli.Run(ctx, spec)
		if res.Outcome == client.OutcomeSucceeded {
			return res.Data, nil
		}
		lastErr = fmt.Errorf("fleet: %s on %s settled %s: %w", spec.Kind, n.name, res.Outcome, res.Err)
	}
	return nil, lastErr
}
