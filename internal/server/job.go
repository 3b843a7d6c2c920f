package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/dist"
	"dnastore/internal/dna"
	"dnastore/internal/store"
)

// JobKind selects the workload a job runs.
type JobKind string

const (
	// KindSimulate runs the noisy-channel simulator over reference strands
	// and returns the clustered dataset.
	KindSimulate JobKind = "simulate"
	// KindRetrieve runs the resilient read path against a stored pool file
	// and returns the recovered object bytes.
	KindRetrieve JobKind = "retrieve"
)

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: executing on a worker.
	StateRunning JobState = "running"
	// StateDone: completed; the result is available.
	StateDone JobState = "done"
	// StateFailed: exhausted its attempts or hit a non-retryable error.
	StateFailed JobState = "failed"
	// StateCanceled: stopped by client request or abandoned at drain
	// without a journal.
	StateCanceled JobState = "canceled"
	// StateCheckpointed: interrupted by drain with its progress journaled;
	// resubmitting the same spec resumes from the journal.
	StateCheckpointed JobState = "checkpointed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCanceled, StateCheckpointed:
		return true
	}
	return false
}

// SimulateSpec parameterises a simulation job. References are either given
// inline or generated; everything is seeded, so the same spec always
// produces the same dataset — which is also what makes a drained job
// resumable: the spec hash names its checkpoint journal.
type SimulateSpec struct {
	// Refs are explicit reference strands; empty means generate NumRefs
	// random references of RefLen bases from the seed.
	Refs []string `json:"refs,omitempty"`
	// NumRefs and RefLen size the generated reference set when Refs is
	// empty.
	NumRefs int `json:"num_refs,omitempty"`
	RefLen  int `json:"ref_len,omitempty"`
	// Seed drives every stochastic choice.
	Seed uint64 `json:"seed"`
	// Sub, Ins, Del are the per-base channel error rates.
	Sub float64 `json:"sub,omitempty"`
	Ins float64 `json:"ins,omitempty"`
	Del float64 `json:"del,omitempty"`
	// Spatial is the error position distribution (uniform when empty).
	Spatial string `json:"spatial,omitempty"`
	// Stages is a multi-stage channel in the -stages DSL
	// (channel.ParseStages); mutually exclusive with Sub/Ins/Del/Spatial.
	// Pool stages (PCR skew, breakage) bind over the coverage model. The
	// raw string is part of the fingerprint, so identical stage specs
	// shard, cache and resume together across dnasimd and the fleet.
	Stages string `json:"stages,omitempty"`
	// Coverage is the reads-per-cluster target; CoverageModel picks the
	// sampler (fixed, negbin, poisson, normal; fixed when empty).
	Coverage      float64 `json:"coverage,omitempty"`
	CoverageModel string  `json:"coverage_model,omitempty"`
	// Faults are more stages in the Stages DSL, run after the channel's
	// own — the -faults flag of dnasim.
	Faults string `json:"faults,omitempty"`
	// ClusterFirst and ClusterCount select a cluster-range shard: only
	// clusters [ClusterFirst, ClusterFirst+ClusterCount) are simulated,
	// against the full reference set, with per-cluster RNGs derived from
	// global indices. A zero ClusterCount means the whole set. The fleet
	// coordinator splits a spec into such shards and merges the results
	// byte-identically; the range is part of the fingerprint, so each
	// shard gets its own checkpoint journal.
	ClusterFirst int `json:"cluster_first,omitempty"`
	ClusterCount int `json:"cluster_count,omitempty"`
}

// NumClusters is the total cluster count of the full (unsharded) spec.
func (sp *SimulateSpec) NumClusters() int {
	if len(sp.Refs) > 0 {
		return len(sp.Refs)
	}
	return sp.NumRefs
}

// ShardRange resolves the cluster range this spec covers: the explicit
// shard range when set, the whole set otherwise.
func (sp *SimulateSpec) ShardRange() (first, count int) {
	if sp.ClusterCount > 0 {
		return sp.ClusterFirst, sp.ClusterCount
	}
	return 0, sp.NumClusters()
}

// Every accepted spec has bounded cost. A spec over one of these bounds
// fails validation with ErrTooLarge.
const (
	// maxCoverage caps the reads-per-cluster target of simulate and
	// retrieve specs.
	maxCoverage = 1000
	// maxOutputBases caps a simulate spec's estimated output: its
	// clusters' reference bases times coverage. The result is buffered
	// whole, so this bounds the job's memory; the load harness's largest
	// spec (8000 refs of 120 bases at 5x) is about a hundredth of it.
	maxOutputBases = 1 << 29
)

// ErrTooLarge marks a spec over a cost bound. The front end answers it
// with 413, which clients do not retry, and counts it as shed with reason
// too_large.
var ErrTooLarge = errors.New("spec too large")

// Validate checks the spec and applies defaults.
func (sp *SimulateSpec) Validate() error {
	if len(sp.Refs) == 0 {
		if sp.NumRefs <= 0 || sp.RefLen <= 0 {
			return errors.New("simulate spec needs refs or num_refs+ref_len")
		}
		if sp.NumRefs > 1<<20 || sp.RefLen > 1<<16 {
			return fmt.Errorf("%w: %d refs of %d bases", ErrTooLarge, sp.NumRefs, sp.RefLen)
		}
	}
	for _, r := range sp.Refs {
		if err := dna.Strand(r).Validate(); err != nil {
			return fmt.Errorf("invalid reference: %w", err)
		}
	}
	rates := channel.Rates{Sub: sp.Sub, Ins: sp.Ins, Del: sp.Del}
	if err := rates.Validate(); err != nil {
		return err
	}
	if sp.Stages != "" {
		if sp.Sub != 0 || sp.Ins != 0 || sp.Del != 0 || sp.Spatial != "" {
			return errors.New("stages is mutually exclusive with sub/ins/del/spatial")
		}
		if _, err := channel.ParseStages(sp.Stages); err != nil {
			return err
		}
	}
	if sp.Coverage <= 0 {
		sp.Coverage = 6
	}
	if _, err := channel.NewCoverage(sp.CoverageModel, sp.Coverage); err != nil {
		return err
	}
	if sp.Spatial != "" && sp.Spatial != "uniform" {
		if _, err := dist.ByName(sp.Spatial); err != nil {
			return err
		}
	}
	if _, err := channel.ParseStages(sp.Faults); err != nil {
		return err
	}
	switch {
	case sp.ClusterFirst < 0 || sp.ClusterCount < 0:
		return fmt.Errorf("cluster range [%d, +%d) negative", sp.ClusterFirst, sp.ClusterCount)
	case sp.ClusterCount == 0 && sp.ClusterFirst > 0:
		return errors.New("cluster_first without cluster_count")
	case sp.ClusterCount > 0 && sp.ClusterFirst+sp.ClusterCount > sp.NumClusters():
		return fmt.Errorf("cluster range [%d, %d) outside [0, %d)",
			sp.ClusterFirst, sp.ClusterFirst+sp.ClusterCount, sp.NumClusters())
	}
	return checkCost(sp.Coverage, sp.outputBases())
}

// outputBases estimates the bases the spec's cluster range puts out: its
// reference bases times the coverage.
func (sp *SimulateSpec) outputBases() float64 {
	first, count := sp.ShardRange()
	bases := count * sp.RefLen
	if len(sp.Refs) > 0 {
		bases = 0
		for _, r := range sp.Refs[first : first+count] {
			bases += len(r)
		}
	}
	return float64(bases) * sp.Coverage
}

// checkCost holds a spec's coverage and estimated output bases to
// maxCoverage and maxOutputBases.
func checkCost(coverage, bases float64) error {
	if !(coverage <= maxCoverage) {
		return fmt.Errorf("%w: coverage %v over %d", ErrTooLarge, coverage, maxCoverage)
	}
	if !(bases <= maxOutputBases) {
		return fmt.Errorf("%w: about %.3g output bases over %d", ErrTooLarge, bases, maxOutputBases)
	}
	return nil
}

// References materialises the reference strands.
func (sp *SimulateSpec) References() []dna.Strand {
	if len(sp.Refs) > 0 {
		refs := make([]dna.Strand, len(sp.Refs))
		for i, r := range sp.Refs {
			refs[i] = dna.Strand(r)
		}
		return refs
	}
	// The reference seed is split from the read seed so reads and
	// references stay independent streams.
	return channel.RandomReferences(sp.NumRefs, sp.RefLen, sp.Seed^0xa5a5a5a5a5a5a5a5)
}

// Simulator builds the channel and coverage model the spec describes:
// the fault stages run after the channel's own, and every pool and
// template stage binds over the coverage model (channel.Compose).
func (sp *SimulateSpec) Simulator() (channel.Channel, channel.CoverageModel, error) {
	var ch channel.Channel
	if sp.Stages != "" {
		stages, err := channel.ParseStages(sp.Stages)
		if err != nil {
			return nil, nil, err
		}
		ch = stages.Build("dnasimd-staged")
	} else {
		m := channel.NewNaive("dnasimd", channel.Rates{Sub: sp.Sub, Ins: sp.Ins, Del: sp.Del})
		ch = m
		if sp.Spatial != "" && sp.Spatial != "uniform" {
			spat, err := dist.ByName(sp.Spatial)
			if err != nil {
				return nil, nil, err
			}
			ch = m.WithSpatial(spat)
		}
	}
	cov, err := channel.NewCoverage(sp.CoverageModel, sp.Coverage)
	if err != nil {
		return nil, nil, err
	}
	extra, err := channel.ParseStages(sp.Faults)
	if err != nil {
		return nil, nil, err
	}
	ch, cov = channel.Compose(ch, cov, extra)
	return ch, cov, nil
}

// Fingerprint hashes the spec's canonical JSON. It names the checkpoint
// journal, so a resubmitted identical spec resumes where a drained run
// stopped.
func (sp *SimulateSpec) Fingerprint() uint64 {
	b, _ := json.Marshal(sp)
	return Hash64(b)
}

// RetrieveSpec parameterises a retrieval job: the resilient read path of
// Pool.RetrieveAdaptive against a pool file on disk.
type RetrieveSpec struct {
	// PoolPath is the pool container file (read through the I/O breaker).
	PoolPath string `json:"pool_path"`
	// Key is the object to recover.
	Key string `json:"key"`
	// ErrorRate and Coverage configure the simulated sequencer.
	ErrorRate float64 `json:"error_rate,omitempty"`
	Coverage  float64 `json:"coverage,omitempty"`
	// Seed drives the sequencing run.
	Seed uint64 `json:"seed"`
	// Retries and Backoff bound the adaptive re-sequencing loop.
	Retries int     `json:"retries,omitempty"`
	Backoff float64 `json:"backoff,omitempty"`
	// Faults are stages in the channel.ParseStages DSL, run after the
	// sequencer — the -faults flag of dnastore get.
	Faults string `json:"faults,omitempty"`
}

// Validate checks the spec and applies defaults.
func (sp *RetrieveSpec) Validate() error {
	if sp.PoolPath == "" || sp.Key == "" {
		return errors.New("retrieve spec needs pool_path and key")
	}
	if sp.ErrorRate < 0 || sp.ErrorRate > 1 {
		return fmt.Errorf("error_rate %v out of [0,1]", sp.ErrorRate)
	}
	if sp.Coverage <= 0 {
		sp.Coverage = 14
	}
	// The pool's size is known only once its file is read, so only the
	// coverage is bounded here; checkRetrieveCost bounds the read-out
	// once the pool is loaded.
	if err := checkCost(sp.Coverage, 0); err != nil {
		return err
	}
	if sp.Retries < 0 {
		return fmt.Errorf("retries %d negative", sp.Retries)
	}
	if _, err := channel.ParseStages(sp.Faults); err != nil {
		return err
	}
	return nil
}

// retryPolicy is the adaptive read path's policy for this spec.
func (sp *RetrieveSpec) retryPolicy() store.RetryPolicy {
	return store.RetryPolicy{MaxAttempts: sp.Retries + 1, Backoff: sp.Backoff}
}

// checkRetrieveCost holds a retrieval's read-out to maxOutputBases: the
// pool's designed bases times the coverage, at the largest scale the
// retry policy can escalate it to.
func checkRetrieveCost(pool *store.Pool, sp *RetrieveSpec) error {
	bases := 0
	for _, s := range pool.DesignedStrands() {
		bases += s.Len()
	}
	return checkCost(sp.Coverage, float64(bases)*sp.Coverage*sp.retryPolicy().PeakScale())
}

// JobSpec is the submission payload: one kind plus its parameters and an
// optional per-job deadline.
type JobSpec struct {
	Kind JobKind `json:"kind"`
	// TimeoutMS bounds the job's execution (0 means the server default).
	// The deadline flows into SimulateCtx / RetrieveAdaptive as a context
	// deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// DeadlineUnixMS is an absolute client-supplied deadline (Unix
	// milliseconds). Unlike TimeoutMS — which starts counting when an
	// attempt starts — the deadline covers queueing and retries too: a
	// submission whose deadline has already passed is rejected at
	// admission (the client is gone; queueing it would waste a slot), and
	// a queued job whose deadline expires before a worker reaches it
	// fails fast instead of executing for nobody.
	DeadlineUnixMS int64         `json:"deadline_unix_ms,omitempty"`
	Simulate       *SimulateSpec `json:"simulate,omitempty"`
	Retrieve       *RetrieveSpec `json:"retrieve,omitempty"`
}

// Deadline returns the absolute deadline, or zero time when unset.
func (s *JobSpec) Deadline() time.Time {
	if s.DeadlineUnixMS <= 0 {
		return time.Time{}
	}
	return time.UnixMilli(s.DeadlineUnixMS)
}

// Fingerprint hashes the whole spec's canonical JSON — the identity used
// for idempotent resubmission: a client retrying a submit whose response
// it lost sends the same fingerprint and gets the same job back.
func (s *JobSpec) Fingerprint() uint64 {
	b, _ := json.Marshal(s)
	return Hash64(b)
}

// Validate checks kind/params consistency.
func (s *JobSpec) Validate() error {
	if s.TimeoutMS < 0 {
		return errors.New("timeout_ms negative")
	}
	if s.DeadlineUnixMS < 0 {
		return errors.New("deadline_unix_ms negative")
	}
	switch s.Kind {
	case KindSimulate:
		if s.Simulate == nil || s.Retrieve != nil {
			return errors.New("simulate job needs exactly the simulate params")
		}
		return s.Simulate.Validate()
	case KindRetrieve:
		if s.Retrieve == nil || s.Simulate != nil {
			return errors.New("retrieve job needs exactly the retrieve params")
		}
		return s.Retrieve.Validate()
	}
	return fmt.Errorf("unknown job kind %q", s.Kind)
}

// Progress is a jobs's cluster-completion counter.
type Progress struct {
	Completed int `json:"completed"`
	Total     int `json:"total"`
}

// Job is one admitted unit of work. Mutable state is guarded by mu; the
// progress stamp is atomic because simulation workers hit it concurrently.
type Job struct {
	// ID is the server-assigned handle.
	ID string
	// Spec is the validated submission.
	Spec JobSpec
	// Created stamps admission; job latency metrics measure from here.
	Created time.Time

	mu       sync.Mutex
	state    JobState
	attempts int
	err      error
	result   []byte
	progress Progress
	// cancel stops the current execution attempt with a cause; nil while
	// not running.
	cancel context.CancelCauseFunc
	// ckpt is the simulation job's open journal handle, shared across
	// attempts so an abandoned attempt and its requeue never hold two
	// handles on the same file.
	ckpt *channel.Checkpoint
	// done is closed when the job reaches a terminal state.
	done chan struct{}

	// lastProgress is the unix-nano timestamp of the last observed cluster
	// completion (or attempt start); the watchdog compares it to now.
	lastProgress atomic.Int64
}

// newJob returns a queued job.
func newJob(id string, spec JobSpec, created time.Time) *Job {
	j := &Job{ID: id, Spec: spec, Created: created, state: StateQueued, done: make(chan struct{})}
	j.touch()
	return j
}

// Start moves a queued job to running with the cancel hook of its new
// attempt, in one critical section: a client cancel that raced the start
// either already settled the job (Start reports false) or will find the
// hook set.
func (j *Job) Start(cancel context.CancelCauseFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = StateRunning
	j.attempts++
	j.cancel = cancel
	return true
}

// Interrupt cancels the job's running attempt with cause, reporting
// whether one was running.
func (j *Job) Interrupt(cause error) bool {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel(cause)
	}
	return cancel != nil
}

// Restore pins a job adopted from durable state to the verdict a previous
// process life recorded. It is not counted again in the finish metrics.
func (j *Job) Restore(state JobState, result []byte, err error) { j.finish(state, result, err) }

// touch stamps progress now; called at attempt start and per cluster.
func (j *Job) touch() { j.lastProgress.Store(time.Now().UnixNano()) }

// sinceProgress returns the time since the last progress stamp.
func (j *Job) sinceProgress() time.Duration {
	return time.Duration(time.Now().UnixNano() - j.lastProgress.Load())
}

// setProgress records cluster completion counts (and stamps the watchdog
// clock). Safe for concurrent use.
func (j *Job) setProgress(completed, total int) {
	j.touch()
	j.mu.Lock()
	if completed > j.progress.Completed || total != j.progress.Total {
		j.progress = Progress{Completed: completed, Total: total}
	}
	j.mu.Unlock()
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Attempts returns how many execution attempts have started.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's output once done.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// finish moves the job to a terminal state exactly once; it reports
// whether this call performed the transition (false when the job was
// already terminal), so callers can attach one-shot side effects such as
// metrics without double counting.
func (j *Job) finish(state JobState, result []byte, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finishLocked(state, result, err)
}

// finishLocked is finish for callers already holding j.mu.
func (j *Job) finishLocked(state JobState, result []byte, err error) bool {
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.result = result
	j.err = err
	j.cancel = nil
	close(j.done)
	return true
}

// Status is the JSON snapshot the HTTP API serves.
type Status struct {
	ID       string   `json:"id"`
	Kind     JobKind  `json:"kind"`
	State    JobState `json:"state"`
	Attempts int      `json:"attempts"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`
	// Resumable marks a checkpointed job whose journal survives:
	// resubmitting the same spec continues it.
	Resumable bool `json:"resumable,omitempty"`
}

// Snapshot returns the job's current status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:       j.ID,
		Kind:     j.Spec.Kind,
		State:    j.state,
		Attempts: j.attempts,
		Progress: j.progress,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	st.Resumable = j.state == StateCheckpointed
	return st
}
