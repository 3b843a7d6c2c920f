package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/obs"
	"dnastore/internal/store"
)

// The worker pool. Each worker pops admitted jobs and runs them under full
// supervision: a per-attempt cancellable context carrying the deadline and
// the progress hook, panic isolation (both the per-cluster isolation
// inside SimulateCtx and a top-level recover for everything else), and the
// cancel-and-abandon protocol for attempts the watchdog kills. Simulation
// jobs execute through the per-cluster split-RNG scheme, so a job's output
// is byte-identical regardless of worker count, stall kills, or requeue
// history.

// errDraining is the cancellation cause used during graceful drain.
var errDraining = errors.New("server: draining")

// jobOutcome is what one execution attempt produced.
type jobOutcome struct {
	result []byte
	err    error
}

// worker loops until the queue closes and drains.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for {
		j := s.queue.pop()
		if j == nil {
			return
		}
		if j.State().Terminal() {
			// Canceled while queued; nothing to run.
			continue
		}
		s.runJob(j)
	}
}

// runJob executes one attempt of j and settles its fate: terminal state,
// or a requeue for another attempt.
func (s *Server) runJob(j *Job) {
	// The attempt context: cancellable with a cause (watchdog kill, client
	// cancel, drain), bounded by the per-job or server-default deadline,
	// and carrying the progress hook that feeds both the status endpoint
	// and the watchdog.
	base, cancel := context.WithCancelCause(context.Background())
	timeout := time.Duration(j.Spec.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultJobTimeout
	}
	// A client-supplied absolute deadline covers queueing too: a job whose
	// deadline expired while it waited fails fast instead of executing for
	// a client that has already given up, and otherwise tightens the
	// attempt timeout to the time actually remaining.
	if ddl := j.Spec.Deadline(); !ddl.IsZero() {
		remaining := time.Until(ddl)
		if remaining <= 0 {
			cancel(nil)
			s.Finish(j, StateFailed, nil, fmt.Errorf("server: job deadline expired while queued: %w", context.DeadlineExceeded))
			return
		}
		if timeout <= 0 || remaining < timeout {
			timeout = remaining
		}
	}
	ctx := base
	var cancelTimeout context.CancelFunc = func() {}
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(base, timeout)
	}
	defer cancelTimeout()
	ctx = channel.WithProgress(ctx, j.setProgress)
	// The stage timer collects per-stage wall time and throughput from
	// every instrumented layer the attempt passes through (channel
	// simulation, pool sequencing, decode); it feeds the per-stage
	// histograms and the attempt's debug log after settling.
	stages := obs.NewStageTimer()
	ctx = obs.WithTimer(ctx, stages)

	// Watched from before the start, so a drain that lists the watchdog's
	// jobs sees every attempt that can be running; the touch first keeps a
	// long queue wait from reading as a stall.
	j.touch()
	s.dog.watch(j)
	defer s.dog.unwatch(j)
	defer cancel(nil)
	if !j.Start(cancel) {
		return
	}
	attempt := j.Attempts()

	// Execute in a child goroutine so a wedged attempt can be abandoned:
	// Go cannot preempt a stuck goroutine, so after a kill the worker
	// waits a short grace for voluntary exit (SimulateCtx yields between
	// clusters) and then walks away. The buffered channel lets the
	// abandoned goroutine finish without leaking.
	resCh := make(chan jobOutcome, 1)
	attemptStart := time.Now()
	go func() {
		defer func() {
			if p := recover(); p != nil {
				resCh <- jobOutcome{err: fmt.Errorf("server: job panic: %v", p)}
			}
		}()
		resCh <- s.execute(ctx, j)
	}()

	var out jobOutcome
	abandoned := false
	select {
	case out = <-resCh:
	case <-ctx.Done():
		select {
		case out = <-resCh:
		case <-time.After(s.cfg.KillGrace):
			abandoned = true
			out = jobOutcome{err: fmt.Errorf("server: attempt %d abandoned: %w", attempt, context.Cause(ctx))}
		}
	}
	s.metrics.attemptSecs.Observe(time.Since(attemptStart).Seconds())
	s.metrics.observeStages(stages.Snapshot())
	if summary := stages.Summary(); summary != "" {
		s.slog.Debug("attempt stages", "job", j.ID, "attempt", attempt, "stages", summary)
	}
	s.settle(j, ctx, out, abandoned)
}

// settle maps an attempt's outcome (and the cancellation cause, if any)
// onto the job lifecycle: done, failed, canceled, checkpointed, or
// requeued for another attempt.
func (s *Server) settle(j *Job, ctx context.Context, out jobOutcome, abandoned bool) {
	cause := context.Cause(ctx)
	switch {
	case out.err == nil:
		s.closeJobCheckpoint(j, true)
		s.Finish(j, StateDone, out.result, nil)
		return

	case errors.Is(cause, ErrCanceledByClient) || errors.Is(out.err, ErrCanceledByClient):
		s.closeJobCheckpoint(j, false)
		s.Finish(j, StateCanceled, nil, ErrCanceledByClient)
		return

	case errors.Is(cause, errDraining) || errors.Is(out.err, errDraining):
		// Drain interrupted the attempt. With a journal the progress is
		// durable and the job is resumable; without one it is canceled.
		if s.jobCheckpointPath(j) != "" && !abandoned {
			s.closeJobCheckpoint(j, false)
			s.Finish(j, StateCheckpointed, nil, errDraining)
		} else {
			s.closeJobCheckpoint(j, false)
			s.Finish(j, StateCanceled, nil, errDraining)
		}
		return

	case errors.Is(cause, context.DeadlineExceeded) || errors.Is(out.err, context.DeadlineExceeded):
		// Re-running would meet the same deadline; fail now.
		s.closeJobCheckpoint(j, false)
		s.Finish(j, StateFailed, nil, fmt.Errorf("server: job deadline exceeded: %w", out.err))
		return

	case errors.Is(cause, ErrStalled):
		s.slog.Warn("attempt stalled", "job", j.ID, "error", out.err)
		s.retryOrFail(j, fmt.Errorf("stalled: %w", cause))
		return

	case errors.Is(out.err, ErrBreakerOpen) || errors.Is(out.err, ErrTooLarge):
		// The I/O dependency is known-bad, or the job is over a cost bound
		// seen only at run time (a retrieve's read-out) that every attempt
		// would meet again; failing fast is the point.
		s.Finish(j, StateFailed, nil, out.err)
		return

	default:
		// Per-cluster panics, decode exhaustion, pool I/O errors: retry up
		// to the attempt cap — transient faults (injected or real) clear,
		// and the split-RNG scheme makes the retry deterministic.
		s.retryOrFail(j, out.err)
		return
	}
}

// retryOrFail requeues the job for another supervised attempt, or fails it
// at the attempt cap. During drain the queue refuses; a checkpointed job
// then parks as resumable, anything else is canceled.
func (s *Server) retryOrFail(j *Job, attemptErr error) {
	j.mu.Lock()
	attempts := j.attempts
	j.err = attemptErr // visible in status while requeued
	j.mu.Unlock()
	if attempts >= s.cfg.MaxAttempts {
		s.closeJobCheckpoint(j, false)
		s.Finish(j, StateFailed, nil, fmt.Errorf("server: %d attempts exhausted, last: %w", attempts, attemptErr))
		return
	}
	j.mu.Lock()
	j.state = StateQueued
	j.cancel = nil
	j.mu.Unlock()
	j.touch()
	if err := s.queue.requeue(j); err != nil {
		if s.jobCheckpointPath(j) != "" {
			s.closeJobCheckpoint(j, false)
			s.Finish(j, StateCheckpointed, nil, errDraining)
		} else {
			s.closeJobCheckpoint(j, false)
			s.Finish(j, StateCanceled, nil, errDraining)
		}
		return
	}
	s.metrics.requeues.Inc()
	s.slog.Info("job requeued", "job", j.ID, "attempt", attempts, "error", attemptErr)
}

// execute dispatches one attempt by kind.
func (s *Server) execute(ctx context.Context, j *Job) jobOutcome {
	switch j.Spec.Kind {
	case KindSimulate:
		return s.executeSimulate(ctx, j)
	case KindRetrieve:
		return s.executeRetrieve(ctx, j)
	}
	return jobOutcome{err: fmt.Errorf("server: unknown job kind %q", j.Spec.Kind)}
}

// jobCheckpointPath returns the journal path for a simulate job, "" when
// checkpointing is off (no data dir) or the job is not a simulation. The
// path derives from the spec fingerprint, not the job ID, so resubmitting
// an identical spec — after a drain, or from a fresh server on the same
// data dir — resumes the journal.
func (s *Server) jobCheckpointPath(j *Job) string {
	if s.cfg.DataDir == "" || j.Spec.Kind != KindSimulate {
		return ""
	}
	return filepath.Join(s.cfg.DataDir, fmt.Sprintf("sim-%016x.ckpt", j.Spec.Simulate.Fingerprint()))
}

// closeJobCheckpoint closes the job's journal handle if open; when the job
// completed, the journal has served its purpose and is removed.
func (s *Server) closeJobCheckpoint(j *Job, completed bool) {
	j.mu.Lock()
	ckpt := j.ckpt
	j.ckpt = nil
	j.mu.Unlock()
	if ckpt == nil {
		return
	}
	ckpt.Close()
	if completed {
		if path := s.jobCheckpointPath(j); path != "" {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				s.slog.Warn("removing checkpoint failed", "job", j.ID, "error", err)
			}
		}
	}
}

// executeSimulate runs one attempt of a simulation job.
func (s *Server) executeSimulate(ctx context.Context, j *Job) jobOutcome {
	spec := j.Spec.Simulate
	ch, cov, err := spec.Simulator()
	if err != nil {
		return jobOutcome{err: err}
	}
	// The journal identity comes from the spec's simulator, before any
	// WrapSimulation injector: drill wrappers change the channel's name but
	// not its output, and must not invalidate (or be required to reopen) a
	// checkpoint written by an unwrapped run.
	desc := channel.Simulator{Channel: ch, Coverage: cov}.Describe()
	if s.cfg.WrapSimulation != nil {
		ch, cov = s.cfg.WrapSimulation(ch, cov)
	}
	refs := spec.References()
	first, count := spec.ShardRange()
	sim := channel.Simulator{Channel: ch, Coverage: cov}

	// One journal handle lives on the job across attempts: an abandoned
	// attempt's goroutine may still commit to it, which is safe (the
	// journal locks, and committed clusters are deterministic) and avoids
	// two handles truncating the same file.
	j.mu.Lock()
	ckpt := j.ckpt
	j.mu.Unlock()
	path := s.jobCheckpointPath(j)
	if path != "" && ckpt == nil {
		// Journal open is disk I/O: it goes through the breaker so a dead
		// data dir trips fast instead of stalling every attempt.
		err := s.breaker.Do(func() error {
			var oerr error
			ckpt, oerr = channel.OpenCheckpoint(path, "simulated", refs, spec.Seed, desc)
			return oerr
		})
		if err != nil {
			return jobOutcome{err: fmt.Errorf("open checkpoint: %w", err)}
		}
		j.mu.Lock()
		j.ckpt = ckpt
		j.mu.Unlock()
		if n := ckpt.Completed(); n > 0 {
			s.slog.Info("resuming from checkpoint", "job", j.ID, "journaled", n, "clusters", count)
			j.setProgress(n, count)
		}
	}

	ds, simErr := sim.SimulateRange(ctx, "simulated", refs, spec.Seed, first, count, ckpt)
	if simErr != nil {
		var se *channel.SimulationError
		if errors.As(simErr, &se) && se.Canceled != nil {
			// Interrupted: surface the cancellation for settle to map.
			return jobOutcome{err: fmt.Errorf("%w (cause: %w)", se.Canceled, context.Cause(ctx))}
		}
		return jobOutcome{err: simErr}
	}
	var out bytes.Buffer
	if err := ds.Write(&out); err != nil {
		return jobOutcome{err: err}
	}
	return jobOutcome{result: out.Bytes()}
}

// executeRetrieve runs one attempt of a retrieval job: pool load through
// the I/O breaker, then the adaptive read path.
func (s *Server) executeRetrieve(ctx context.Context, j *Job) jobOutcome {
	spec := j.Spec.Retrieve
	var pool *store.Pool
	err := s.breaker.Do(func() error {
		p, _, lerr := store.LoadFile(spec.PoolPath)
		pool = p
		return lerr
	})
	if err != nil {
		return jobOutcome{err: fmt.Errorf("load pool: %w", err)}
	}
	if err := checkRetrieveCost(pool, spec); err != nil {
		return jobOutcome{err: err}
	}
	extra, err := channel.ParseStages(spec.Faults)
	if err != nil {
		return jobOutcome{err: err}
	}
	factory := func(attempt int, scale float64) (channel.Channel, channel.CoverageModel) {
		m := channel.NewNaive("sequencer", channel.NanoporeMix(spec.ErrorRate))
		return channel.Compose(m, channel.NegBinCoverage{Mean: spec.Coverage * scale, Dispersion: 6}, extra)
	}
	data, _, _, err := pool.RetrieveAdaptive(ctx, spec.Key, factory, spec.retryPolicy(), spec.Seed)
	if err != nil {
		return jobOutcome{err: err}
	}
	return jobOutcome{result: data}
}
