// Package server implements dnasimd: a hardened, long-running job service
// over the simulation and retrieval primitives built in earlier layers.
// Clients submit simulation and retrieval jobs over HTTP (submit / status
// / result / cancel); a supervised worker pool executes them.
//
// Robustness is layered through the whole request lifecycle:
//
//   - Admission control: a bounded queue sheds excess load with 503 +
//     Retry-After instead of growing without bound.
//   - Deadline propagation: per-job (and server-default) timeouts flow as
//     context deadlines into SimulateCtx / RetrieveAdaptive.
//   - Supervision: per-cluster panic isolation (SimulateCtx), a top-level
//     recover per attempt, and a stall watchdog that kills attempts making
//     no cluster progress and requeues them under an attempt cap.
//   - Circuit breaker: pool/disk I/O trips open on consecutive failures
//     and fails fast until a half-open probe succeeds.
//   - Graceful drain: SIGTERM stops admission, lets in-flight jobs finish
//     or checkpoint to the durable journal, and exits cleanly; /healthz
//     and /readyz reflect each phase.
//
// Determinism is preserved end to end: jobs execute clusters via the
// per-cluster split-RNG scheme, so output is byte-identical regardless of
// worker count, stall kills, requeues, or drain/resume cycles.
//
// The HTTP job front end (Frontend) is shared with the fleet coordinator:
// a Server is that front end over the local worker pool, and a
// fleet.Coordinator is the same front end over its shard scheduler.
package server

import (
	"errors"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"dnastore/internal/channel"
	"dnastore/internal/obs"
)

// Config parameterises a Server. The zero value is usable: every field
// has a production-shaped default.
type Config struct {
	// QueueCapacity bounds the admission queue (default 64). Submissions
	// beyond it are shed with 503 + Retry-After.
	QueueCapacity int
	// Workers sizes the worker pool (default GOMAXPROCS).
	Workers int
	// DataDir, when set, enables checkpoint journals for simulation jobs
	// (and is where drained jobs park their resumable state).
	DataDir string
	// MaxAttempts caps supervised retries per job (default 3).
	MaxAttempts int
	// StallAfter is how long a running job may go without completing a
	// cluster before the watchdog kills the attempt (default 30s;
	// negative disables).
	StallAfter time.Duration
	// WatchdogInterval is the stall scan period (default 1s).
	WatchdogInterval time.Duration
	// KillGrace is how long a killed attempt gets to exit voluntarily
	// before the worker abandons its goroutine (default 2s).
	KillGrace time.Duration
	// DrainGrace bounds how long Drain waits for non-checkpointable jobs
	// before canceling them (default 30s).
	DrainGrace time.Duration
	// DefaultJobTimeout bounds jobs that set no timeout_ms (default: none).
	DefaultJobTimeout time.Duration
	// BreakerThreshold and BreakerCooldown configure the I/O circuit
	// breaker (defaults 5 failures, 10s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// EstimatedJobTime seeds the Retry-After estimate (default 2s).
	EstimatedJobTime time.Duration
	// WrapSimulation, when set, wraps every simulation job's channel and
	// coverage model — the chaos-drill injection point for panic, stall
	// and latency injectors.
	WrapSimulation func(ch channel.Channel, cov channel.CoverageModel) (channel.Channel, channel.CoverageModel)
	// Logger receives structured per-request and per-job logs (job IDs,
	// outcomes, stage timings, drain and supervision events; default:
	// discard).
	Logger *slog.Logger
	// Registry receives the server's metrics; nil allocates a private
	// registry (exposed via Server.Registry and GET /metrics either way).
	Registry *obs.Registry
}

// Server is the dnasimd job service: the shared job Frontend over the
// local supervised worker pool, which is the Executor implemented below.
// The binary wires it to a net/http.Server and signal handling.
type Server struct {
	*Frontend
	cfg      Config
	queue    *jobQueue
	dog      *watchdog
	breaker  *Breaker
	metrics  *serverMetrics
	slog     *slog.Logger
	workerWG sync.WaitGroup
}

// New starts a serving Server: workers and watchdog are live on return.
func New(cfg Config) *Server {
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.StallAfter == 0 {
		cfg.StallAfter = 30 * time.Second
	}
	if cfg.WatchdogInterval <= 0 {
		cfg.WatchdogInterval = time.Second
	}
	if cfg.KillGrace <= 0 {
		cfg.KillGrace = 2 * time.Second
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 30 * time.Second
	}
	if cfg.EstimatedJobTime <= 0 {
		cfg.EstimatedJobTime = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Discard()
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		queue:   newJobQueue(cfg.QueueCapacity),
		breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		slog:    cfg.Logger,
	}
	s.Frontend = NewFrontend(s, FrontendConfig{
		IDPrefix: "j", DrainGrace: cfg.DrainGrace, Logger: cfg.Logger, Registry: cfg.Registry,
	})
	// Supervision events flow into the metric surface through hooks so the
	// watchdog and breaker stay observable without importing obs
	// themselves. Both hooks are installed before any goroutine that can
	// fire them starts (the watchdog scan loop starts inside newWatchdog;
	// the breaker is only exercised by workers started below).
	s.dog = newWatchdog(cfg.WatchdogInterval, cfg.StallAfter, func(j *Job) {
		s.metrics.kills.Inc()
		s.slog.Warn("watchdog kill", "job", j.ID, "stall_after", s.cfg.StallAfter)
	})
	s.breaker.onTransition = func(from, to BreakerState) {
		if c := s.metrics.breakerTo[to]; c != nil {
			c.Inc()
		}
		s.slog.Warn("breaker transition", "from", string(from), "to", string(to))
	}
	s.metrics = newServerMetrics(s, cfg.Registry)
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Admit queues a job for the worker pool (Executor). The queue is bounded
// and sheds instead of waiting, so the push never blocks the front end.
func (s *Server) Admit(j *Job, _ string) error {
	err := s.queue.push(j)
	switch {
	case errors.Is(err, ErrQueueFull):
		return &ShedError{Reason: shedQueueFull, Err: err}
	case err != nil:
		return &ShedError{Reason: shedDraining, Err: err}
	}
	return nil
}

// RetryEstimate is the queue backlog divided across the worker pool at the
// configured per-job estimate (Executor).
func (s *Server) RetryEstimate() float64 {
	backlog := s.queue.depth() + s.dog.runningCount()
	return s.cfg.EstimatedJobTime.Seconds() * float64(backlog+1) / float64(max(s.cfg.Workers, 1))
}

// Ready reports that the pool takes work whenever the front end serves
// (Executor).
func (s *Server) Ready() error { return nil }

// Health is the single-node /healthz payload.
type Health struct {
	Phase      Phase        `json:"phase"`
	QueueDepth int          `json:"queue_depth"`
	Running    int          `json:"running"`
	Breaker    BreakerState `json:"breaker"`
	Jobs       int          `json:"jobs"`
}

// Health returns the /healthz body (Executor).
func (s *Server) Health(phase Phase, jobs int) any {
	return Health{
		Phase:      phase,
		QueueDepth: s.queue.depth(),
		Running:    s.dog.runningCount(),
		Breaker:    s.breaker.State(),
		Jobs:       jobs,
	}
}

// Mount adds GET /drainz (Executor).
func (s *Server) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /drainz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.DrainzSnapshot())
	})
}

// Quiesce is the pool's part of the drain (Executor): queued jobs are
// canceled (they never started, so there is nothing to checkpoint), running
// simulate jobs with a journal are interrupted so they park as
// checkpointed, and the rest get DrainGrace to finish before they are
// canceled too.
func (s *Server) Quiesce() {
	for _, j := range s.queue.close() {
		s.Finish(j, StateCanceled, nil, errDraining)
	}
	for _, j := range s.dog.jobs() {
		if s.jobCheckpointPath(j) != "" {
			j.Interrupt(errDraining)
		}
	}
	workersDone := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(workersDone)
	}()
	select {
	case <-workersDone:
	case <-time.After(s.cfg.DrainGrace):
		s.slog.Warn("drain: grace expired, canceling stragglers", "grace", s.cfg.DrainGrace)
		for _, j := range s.dog.jobs() {
			j.Interrupt(errDraining)
		}
		<-workersDone
	}
	s.dog.close()
}
