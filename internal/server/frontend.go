package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"dnastore/internal/obs"
)

// The job front end shared by the single-node server and the fleet
// coordinator: the job table, ID minting, the Idempotency-Key map, the
// serving → draining → stopped phase, the HTTP routes, request logging,
// checksummed JSON responses, the Retry-After clamp and the shared
// dnasimd_jobs_* metrics. What runs a job is an Executor; the contract a
// client sees is the same whichever one sits behind the front end
// (DESIGN.md, "The dnasimd HTTP contract").

// Phase is the front-end lifecycle state exposed by /healthz and /readyz.
type Phase string

const (
	// PhaseServing: admitting and executing jobs.
	PhaseServing Phase = "serving"
	// PhaseDraining: admission stopped; in-flight jobs finishing or
	// checkpointing.
	PhaseDraining Phase = "draining"
	// PhaseStopped: the executor has drained; the process is about to
	// leave.
	PhaseStopped Phase = "stopped"
)

// Executor runs the jobs a Frontend admits. It supplies only what differs
// between running jobs on a local worker pool and across a fleet.
type Executor interface {
	// Admit takes a freshly minted job. It runs under the front-end lock,
	// so it must not wait on other jobs: a queue push, or a synced ledger
	// write. A *ShedError refuses the job with 503 + Retry-After; any
	// other error with 400.
	Admit(j *Job, key string) error
	// RetryEstimate is how long, in seconds, a client shed while serving
	// should wait before retrying. The front end clamps it.
	RetryEstimate() float64
	// Ready reports why the executor cannot take work while serving; nil
	// means it can.
	Ready() error
	// Health returns the /healthz body.
	Health(phase Phase, jobs int) any
	// Mount adds the executor's own routes.
	Mount(mux *http.ServeMux)
	// Quiesce runs the executor's drain steps once admission has stopped,
	// and returns when no job is left running.
	Quiesce()
}

// FrontendConfig parameterises a Frontend.
type FrontendConfig struct {
	// IDPrefix starts every minted job ID.
	IDPrefix string
	// DrainGrace is the drain window; while not serving, Retry-After is
	// what is left of it.
	DrainGrace time.Duration
	// Logger and Registry are required.
	Logger   *slog.Logger
	Registry *obs.Registry
}

// Shed reasons: the dnasimd_jobs_shed_total label values.
const (
	shedQueueFull = "queue_full"
	shedDraining  = "draining"
	shedDeadline  = "deadline_expired"
	shedTooLarge  = "too_large"
)

// ShedError refuses a submission the client should retry later: 503 with
// a Retry-After hint, counted under dnasimd_jobs_shed_total{reason}.
type ShedError struct {
	Reason string
	Err    error
}

func (e *ShedError) Error() string { return "shed (" + e.Reason + "): " + e.Err.Error() }

func (e *ShedError) Unwrap() error { return e.Err }

// ErrDeadlineExpired is returned by Submit when the spec's client-supplied
// deadline has already passed at admission time. The HTTP layer maps it to
// 504: executing the job would burn a slot producing a result no one is
// still waiting for.
var ErrDeadlineExpired = errors.New("server: job deadline already expired at admission")

// ErrCanceledByClient is the cancellation cause for DELETE /v1/jobs/{id}.
var ErrCanceledByClient = errors.New("server: job canceled by client")

// Frontend is the shared job front end. It implements http.Handler.
type Frontend struct {
	exec       Executor
	idPrefix   string
	drainGrace time.Duration
	slog       *slog.Logger
	reg        *obs.Registry
	mux        *http.ServeMux

	submitted  *obs.Counter
	replays    *obs.Counter
	finished   map[JobState]*obs.Counter
	jobSeconds map[JobKind]*obs.Histogram

	mu           sync.Mutex
	phase        Phase
	jobs         map[string]*Job
	idem         map[string]string // idempotency key -> job ID
	nextID       int
	drainStarted time.Time

	drainOnce sync.Once
	drained   chan struct{}
}

// jobBuckets cover the service's latency range: millisecond drills up to
// multi-minute full-scale simulations.
var jobBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60, 300}

// NewFrontend returns a serving front end over exec.
func NewFrontend(exec Executor, cfg FrontendConfig) *Frontend {
	reg := cfg.Registry
	f := &Frontend{
		exec:       exec,
		idPrefix:   cfg.IDPrefix,
		drainGrace: cfg.DrainGrace,
		slog:       cfg.Logger,
		reg:        reg,
		phase:      PhaseServing,
		jobs:       make(map[string]*Job),
		idem:       make(map[string]string),
		drained:    make(chan struct{}),
	}
	f.submitted = reg.Counter("dnasimd_jobs_submitted_total",
		"Jobs admitted past validation and admission control.")
	f.replays = reg.Counter("dnasimd_jobs_idempotent_replays_total",
		"Submissions answered with an already-admitted job via Idempotency-Key.")
	f.shedCounter(shedDraining)
	f.shedCounter(shedDeadline)
	f.shedCounter(shedTooLarge)
	finHelp := "Jobs reaching a terminal state, by outcome."
	f.finished = make(map[JobState]*obs.Counter)
	for _, st := range []JobState{StateDone, StateFailed, StateCanceled, StateCheckpointed} {
		f.finished[st] = reg.Counter(fmt.Sprintf(`dnasimd_jobs_finished_total{outcome=%q}`, st), finHelp)
	}
	latHelp := "Job latency from admission to terminal state, by kind."
	f.jobSeconds = map[JobKind]*obs.Histogram{
		KindSimulate: reg.Histogram(`dnasimd_job_seconds{kind="simulate"}`, latHelp, jobBuckets),
		KindRetrieve: reg.Histogram(`dnasimd_job_seconds{kind="retrieve"}`, latHelp, jobBuckets),
	}
	reg.GaugeFunc("dnasimd_jobs_tracked", "Jobs known to the front end (all states).",
		func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return float64(len(f.jobs))
		})

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", f.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", f.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", f.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", f.handleCancel)
	mux.HandleFunc("GET /healthz", f.handleHealthz)
	mux.HandleFunc("GET /readyz", f.handleReadyz)
	mux.Handle("GET /metrics", reg.Handler())
	exec.Mount(mux)
	f.mux = mux
	return f
}

// shedCounter returns the shed counter for one reason, registering it on
// first use.
func (f *Frontend) shedCounter(reason string) *obs.Counter {
	return f.reg.Counter(fmt.Sprintf(`dnasimd_jobs_shed_total{reason=%q}`, reason),
		"Submissions shed at admission, by reason.")
}

// Registry returns the metrics registry (also served from GET /metrics).
func (f *Frontend) Registry() *obs.Registry { return f.reg }

// Phase returns the current lifecycle phase.
func (f *Frontend) Phase() Phase {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.phase
}

// Submit validates and admits a job, returning it or an admission error:
// a *ShedError (503), ErrDeadlineExpired (504), ErrTooLarge (413), or
// another validation error (400).
func (f *Frontend) Submit(spec JobSpec) (*Job, error) {
	j, _, err := f.SubmitIdempotent("", spec)
	return j, err
}

// SubmitIdempotent is Submit with an optional idempotency key. A non-empty
// key that was already admitted returns the existing job with replayed =
// true instead of creating a duplicate — in every phase, so a client
// retrying a submit that raced a drain still learns its job ID. The
// key→job binding is made under the same critical section as admission,
// so two concurrent submits with the same key can never both create a job.
func (f *Frontend) SubmitIdempotent(key string, spec JobSpec) (j *Job, replayed bool, err error) {
	if err := spec.Validate(); err != nil {
		if errors.Is(err, ErrTooLarge) {
			f.shedCounter(shedTooLarge).Inc()
		}
		return nil, false, fmt.Errorf("server: invalid job: %w", err)
	}
	j, replayed, err = f.admit(key, spec)
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		f.shedCounter(shed.Reason).Inc()
	case errors.Is(err, ErrDeadlineExpired):
		f.shedCounter(shedDeadline).Inc()
	}
	return j, replayed, err
}

// admit is SubmitIdempotent's critical section. It registers no metric: a
// scrape holds the registry lock while it reads the jobs_tracked gauge,
// which takes f.mu.
func (f *Frontend) admit(key string, spec JobSpec) (*Job, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if prev := f.jobs[f.idem[key]]; key != "" && prev != nil && prev.State() != StateCheckpointed {
		// Replay everything except a checkpointed job: resumable means
		// "resubmit to continue", so the retry admits a fresh job (which
		// picks the journal back up) and rebinds the key.
		f.replays.Inc()
		return prev, true, nil
	}
	if ddl := spec.Deadline(); !ddl.IsZero() && !time.Now().Before(ddl) {
		return nil, false, ErrDeadlineExpired
	}
	if f.phase != PhaseServing {
		return nil, false, &ShedError{Reason: shedDraining, Err: ErrQueueClosed}
	}
	j := newJob(fmt.Sprintf("%s%06d", f.idPrefix, f.nextID+1), spec, time.Now())
	if err := f.exec.Admit(j, key); err != nil {
		return nil, false, err
	}
	f.nextID++
	f.jobs[j.ID] = j
	if key != "" {
		f.idem[key] = j.ID
	}
	f.submitted.Inc()
	f.slog.Info("job admitted", "job", j.ID, "kind", string(spec.Kind))
	return j, false, nil
}

// Adopt registers a job restored from durable state under its old ID and
// Idempotency-Key, and moves ID minting past it. The job starts queued;
// the executor runs it or pins the verdict it recorded with Job.Restore.
func (f *Frontend) Adopt(id, key string, spec JobSpec, created time.Time) *Job {
	j := newJob(id, spec, created)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.jobs[id] = j
	if key != "" {
		f.idem[key] = id
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(id, f.idPrefix)); err == nil && n > f.nextID {
		f.nextID = n
	}
	return j
}

// Job returns a submitted job by ID.
func (f *Frontend) Job(id string) (*Job, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	j, ok := f.jobs[id]
	return j, ok
}

// Finish moves a job to a terminal state and, if this call performed the
// transition, records outcome and latency exactly once. Every executor
// finish goes through here.
func (f *Frontend) Finish(j *Job, state JobState, result []byte, err error) bool {
	if !j.finish(state, result, err) {
		return false
	}
	f.observeFinish(j, state, err)
	return true
}

func (f *Frontend) observeFinish(j *Job, state JobState, err error) {
	f.finished[state].Inc()
	if h := f.jobSeconds[j.Spec.Kind]; h != nil {
		h.Observe(time.Since(j.Created).Seconds())
	}
	attrs := []any{"job", j.ID, "kind", string(j.Spec.Kind), "state", string(state),
		"attempts", j.Attempts(), "elapsed", time.Since(j.Created).Round(time.Millisecond)}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
	}
	f.slog.Info("job finished", attrs...)
}

// Cancel requests cancellation of a job. A queued job settles canceled at
// once; a running one has its attempt context canceled and settles
// shortly.
func (f *Frontend) Cancel(id string) (JobState, error) {
	j, ok := f.Job(id)
	if !ok {
		return "", fmt.Errorf("server: unknown job %q", id)
	}
	j.mu.Lock()
	state := j.state
	parked := state == StateQueued && j.finishLocked(StateCanceled, nil, ErrCanceledByClient)
	j.mu.Unlock()
	switch {
	case parked:
		f.observeFinish(j, StateCanceled, ErrCanceledByClient)
		return StateCanceled, nil
	case state.Terminal():
		return state, nil
	}
	j.Interrupt(ErrCanceledByClient)
	return StateRunning, nil
}

// Drain runs the shutdown state machine: serving → draining (admission
// stops; submissions shed and /readyz answers 503, but status, result and
// idempotent replays keep working), the executor's own drain steps, then
// stopped. Idempotent; returns once stopped.
func (f *Frontend) Drain() {
	f.drainOnce.Do(func() {
		f.mu.Lock()
		f.phase = PhaseDraining
		f.drainStarted = time.Now()
		f.mu.Unlock()
		f.slog.Info("drain: admission stopped")
		f.exec.Quiesce()
		f.mu.Lock()
		f.phase = PhaseStopped
		f.mu.Unlock()
		f.slog.Info("drain: stopped")
		close(f.drained)
	})
	<-f.drained
}

// maxRetryAfterSeconds caps the Retry-After hint: past an hour the number
// stops being advice and starts being a bug amplifier.
const maxRetryAfterSeconds = 3600

// clampRetryAfter turns an estimate in seconds into RFC 9110
// delta-seconds: a non-negative decimal integer, where 0 (or a fraction)
// would make well-behaved clients retry immediately. It rounds up into
// [1, maxRetryAfterSeconds]; the comparisons also catch NaN and ±Inf
// before the float→int conversion, whose behavior is undefined out of
// range.
func clampRetryAfter(sec float64) int {
	switch {
	case !(sec > 1): // ≤1, or NaN
		return 1
	case sec >= maxRetryAfterSeconds:
		return maxRetryAfterSeconds
	}
	return int(math.Ceil(sec))
}

// retryAfter is the Retry-After hint. While serving it is the executor's
// estimate. Otherwise admission never resumes in this process, so the
// honest hint is the rest of the drain window: by then this instance has
// exited and its replacement can take the retry. The shed path and
// /readyz both use it, so readiness probes and shed clients hear the same
// number.
func (f *Frontend) retryAfter() int {
	f.mu.Lock()
	phase, started := f.phase, f.drainStarted
	f.mu.Unlock()
	if phase == PhaseServing {
		return clampRetryAfter(f.exec.RetryEstimate())
	}
	return clampRetryAfter((f.drainGrace - time.Since(started)).Seconds())
}

// statusWriter captures the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler, logging every request with method,
// path, status and latency. Job routes log at info; health and metrics
// probes at debug so scrapers don't flood the log.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	f.mux.ServeHTTP(sw, r)
	lvl := slog.LevelDebug
	if strings.HasPrefix(r.URL.Path, "/v1/") {
		lvl = slog.LevelInfo
	}
	f.slog.Log(r.Context(), lvl, "http request",
		"method", r.Method, "path", r.URL.Path, "status", sw.code,
		"elapsed", time.Since(start).Round(time.Microsecond))
}

// BodyChecksumHeader carries an FNV-64a hash (hex) of the response body.
// HTTP framing protects against truncation but not against bytes flipped
// in flight that happen to keep the framing valid — a mangled job ID
// inside otherwise-parseable JSON, or a silently corrupted result
// payload. The client recomputes the hash over the received body and
// treats a mismatch as a transport fault to retry, never data to act on.
const BodyChecksumHeader = "X-Dnasimd-Body-Fnv64a"

// Hash64 is the FNV-64a hash behind every dnasimd identity: spec
// fingerprints, the response-body checksum, and fleet placement.
func Hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// BodyChecksum renders the BodyChecksumHeader value for a body.
func BodyChecksum(b []byte) string { return fmt.Sprintf("%016x", Hash64(b)) }

// WriteJSON writes a JSON response with its body checksum header.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		buf = []byte(`{"error":"encode response"}`)
	}
	buf = append(buf, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(BodyChecksumHeader, BodyChecksum(buf))
	w.WriteHeader(code)
	w.Write(buf)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// IdempotencyKeyHeader carries the client's submission identity. Retrying
// a submit with the same key returns the originally admitted job (HTTP 200
// with IdempotencyReplayedHeader: true) instead of creating a duplicate.
const (
	IdempotencyKeyHeader      = "Idempotency-Key"
	IdempotencyReplayedHeader = "Idempotency-Replayed"
)

func (f *Frontend) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode job spec: %v", err))
		return
	}
	j, replayed, err := f.SubmitIdempotent(r.Header.Get(IdempotencyKeyHeader), spec)
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		w.Header().Set("Retry-After", strconv.Itoa(f.retryAfter()))
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, ErrDeadlineExpired):
		// 504, not 503: the client's time budget is spent, so "come back
		// later" would be a lie — there is no Retry-After that helps.
		writeError(w, http.StatusGatewayTimeout, err.Error())
	case errors.Is(err, ErrTooLarge):
		// 413: the spec itself is over a cost bound; retrying it later
		// cannot help.
		writeError(w, http.StatusRequestEntityTooLarge, err.Error())
	case err != nil:
		writeError(w, http.StatusBadRequest, err.Error())
	case replayed:
		w.Header().Set(IdempotencyReplayedHeader, "true")
		WriteJSON(w, http.StatusOK, j.Snapshot())
	default:
		WriteJSON(w, http.StatusAccepted, j.Snapshot())
	}
}

// jobOr404 looks up the request's {id} job, answering 404 when unknown.
func (f *Frontend) jobOr404(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := f.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job")
	}
	return j, ok
}

func (f *Frontend) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := f.jobOr404(w, r); ok {
		WriteJSON(w, http.StatusOK, j.Snapshot())
	}
}

func (f *Frontend) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := f.jobOr404(w, r)
	if !ok {
		return
	}
	st := j.Snapshot()
	w.Header().Set("X-Job-State", string(st.State))
	data, ok := j.Result()
	if !ok {
		WriteJSON(w, http.StatusConflict, st)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(BodyChecksumHeader, BodyChecksum(data))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (f *Frontend) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := f.jobOr404(w, r)
	if !ok {
		return
	}
	f.Cancel(j.ID)
	WriteJSON(w, http.StatusAccepted, j.Snapshot())
}

// handleHealthz is liveness plus introspection: 200 while the process is
// serving or draining (it is alive and can answer), with the executor's
// health snapshot as the body; 503 once stopped.
func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	phase, jobs := f.phase, len(f.jobs)
	f.mu.Unlock()
	code := http.StatusOK
	if phase == PhaseStopped {
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, f.exec.Health(phase, jobs))
}

// handleReadyz is readiness: 200 only while serving and the executor can
// take work, so load balancers stop routing to an instance before it
// sheds.
func (f *Frontend) handleReadyz(w http.ResponseWriter, r *http.Request) {
	status := string(f.Phase())
	if status == string(PhaseServing) {
		err := f.exec.Ready()
		if err == nil {
			WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			return
		}
		status = err.Error()
	}
	w.Header().Set("Retry-After", strconv.Itoa(f.retryAfter()))
	WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": status})
}
