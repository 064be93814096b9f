// Package server is the simulation-as-a-service layer: an HTTP/JSON API
// that accepts engine jobs (POST /v1/jobs), runs them on a bounded
// worker pool over the unified execution engine — so the LRU result
// cache, cancellation and telemetry instrumentation of internal/engine
// are reused verbatim — and exposes status/result polling
// (GET /v1/jobs/{id}), live progress as Server-Sent Events
// (GET /v1/jobs/{id}/events), cancellation (DELETE /v1/jobs/{id}),
// scenario discovery (GET /v1/scenarios), and liveness/readiness probes
// (/healthz, /readyz).
//
// The queue applies real backpressure: a full queue rejects submissions
// with 503 and a Retry-After header, and a per-client token bucket
// rejects bursts with 429, so overload sheds load at the edge instead of
// growing unbounded in memory. Shutdown drains gracefully — in-flight
// jobs complete, queued jobs are rejected — and every queue and request
// measurement lands in the internal/telemetry registry next to the
// engine's own metrics (see docs/METRICS.md).
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diversity/internal/engine"
	"diversity/internal/store"
	"diversity/internal/telemetry"
)

// Config parameterises a Server. The zero value is usable: every field
// has a serving default.
type Config struct {
	// Workers is the worker-pool size; <= 0 selects GOMAXPROCS. Each
	// worker runs one job at a time, and jobs parallelise internally, so
	// a small pool saturates the machine.
	Workers int
	// QueueDepth bounds the number of accepted-but-not-started jobs;
	// <= 0 selects 64. A full queue rejects submissions with 503.
	QueueDepth int
	// RatePerSec and Burst parameterise the per-client token bucket:
	// RatePerSec tokens per second refill up to Burst. RatePerSec <= 0
	// disables rate limiting; Burst <= 0 selects 2*RatePerSec (min 1).
	RatePerSec float64
	Burst      int
	// MaxReps caps the replication count of a single submitted job
	// (Monte-Carlo and rare-event kinds); <= 0 means uncapped. A cap
	// turns a pathological 10^12-replication submission into a 400
	// instead of a wedged worker.
	MaxReps int
	// RetainJobs bounds the job ledger; <= 0 selects 1024. When
	// exceeded, the oldest terminal jobs are evicted — from memory and,
	// when a Store is configured, from the durable ledger too, so it is
	// a retention policy, not a crash-loss bound: restarts lose nothing
	// that is retained. Queued and running jobs are never evicted.
	RetainJobs int
	// CacheSize is the engine result-cache size (<= 0 selects the
	// engine default of 128).
	CacheSize int
	// Store, when non-nil, is the durable job ledger: submissions and
	// lifecycle transitions are journaled through it, and New replays it
	// so finished results survive restarts (see docs/OPERATIONS.md). Nil
	// keeps the ledger purely in memory — the pre-store behavior.
	Store *store.Store
	// Registry receives the server's metrics; nil creates a private
	// registry. Pass the process registry so the queue gauges appear on
	// the same expvar endpoint as the engine metrics.
	Registry *telemetry.Registry
	// Logger, when non-nil, receives structured request and job
	// lifecycle lines (and is handed to the engine).
	Logger *slog.Logger
}

// jobStatus is the lifecycle state of a submitted job.
type jobStatus string

const (
	statusQueued    jobStatus = "queued"
	statusRunning   jobStatus = "running"
	statusDone      jobStatus = "done"
	statusFailed    jobStatus = "failed"
	statusCancelled jobStatus = "cancelled"
)

// terminal reports whether the status is final.
func (s jobStatus) terminal() bool {
	return s == statusDone || s == statusFailed || s == statusCancelled
}

// jobState is one submitted job's record: the spec, its lifecycle state,
// and its progress stream.
type jobState struct {
	id       string // server-unique submission ID
	engineID string // stable spec-hash-derived engine job ID
	runID    string // request/run correlation ID, immutable after submit
	job      engine.Job
	tracker  *progressTracker

	mu              sync.Mutex
	status          jobStatus
	result          *engine.Result
	resultView      *resultView // result rendered once, on first detail view
	errMsg          string
	submitted       time.Time
	started         time.Time
	finished        time.Time
	cancelRequested bool
	cancel          context.CancelFunc
}

// Server executes engine jobs submitted over HTTP on a bounded worker
// pool. Construct with New, mount with Register, start the pool with
// Start, and drain with Shutdown.
type Server struct {
	cfg     Config
	reg     *telemetry.Registry
	log     *slog.Logger
	eng     *engine.Engine
	store   *store.Store // nil = in-memory ledger only
	limiter *rateLimiter

	// runJob executes one job; it defaults to the engine's
	// RunWithProgress and is swappable in tests for deterministic
	// queue/backpressure/shutdown scenarios.
	runJob func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error)

	queue    chan *jobState
	inflight atomic.Int64

	mu       sync.Mutex
	jobs     map[string]*jobState
	order    []string // submission order, for listing and eviction
	seq      uint64
	draining bool
	started  bool
	drainCh  chan struct{}
	wg       sync.WaitGroup
}

// New returns an unstarted server: handlers answer (readyz reports 503)
// but no worker pool runs until Start.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RetainJobs <= 0 {
		cfg.RetainJobs = 1024
	}
	if cfg.Burst <= 0 {
		cfg.Burst = max(1, int(2*cfg.RatePerSec))
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		log:     cfg.Logger,
		store:   cfg.Store,
		limiter: newRateLimiter(cfg.RatePerSec, cfg.Burst, nil),
		queue:   make(chan *jobState, cfg.QueueDepth),
		jobs:    make(map[string]*jobState),
		drainCh: make(chan struct{}),
	}
	s.eng = engine.New(engine.Options{
		CacheSize: cfg.CacheSize,
		Telemetry: reg,
		Logger:    cfg.Logger,
	})
	s.runJob = s.eng.RunWithProgress
	// Pre-register the serving metrics so the expvar endpoint and the
	// first /metrics scrape carry every series — zeros included — before
	// the first request.
	reg.Gauge("server.queue_depth")
	reg.Gauge("server.jobs_inflight")
	for _, reason := range []string{"queue_full", "rate_limited", "draining"} {
		reg.Counter("server.rejected_total." + reason)
	}
	for _, status := range []jobStatus{statusDone, statusFailed, statusCancelled} {
		reg.Counter("server.jobs_total." + string(status))
	}
	for _, route := range apiRoutes {
		reg.Histogram("server.request_duration_seconds."+route.name+"."+route.status, telemetry.DurationBuckets)
	}
	if s.store != nil {
		s.replayFromStore()
	}
	return s
}

// Start launches the worker pool. It is a no-op when already started.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.draining {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// errors the submission path maps to HTTP statuses.
var (
	errQueueFull = errors.New("job queue full")
	errDraining  = errors.New("server draining")
)

// submit registers and enqueues a job, returning its state. The draining
// check, ledger insert and queue send happen under one lock so Shutdown
// cannot drain the queue between a successful admission check and the
// send (which would strand the job). runID is the submitting request's
// correlation ID; the worker threads it to the engine run, so the trace,
// logs and flight-recorder events of the eventual execution all carry
// the submission's X-Request-ID.
func (s *Server) submit(job engine.Job, engineID, runID string) (*jobState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || !s.started {
		return nil, errDraining
	}
	s.seq++
	js := &jobState{
		id:        fmt.Sprintf("j-%06d-%s", s.seq, shortEngineID(engineID)),
		engineID:  engineID,
		runID:     runID,
		job:       job,
		tracker:   newProgressTracker(),
		status:    statusQueued,
		submitted: time.Now(),
	}
	// Journal before the queue send: a job the client sees accepted is a
	// job the ledger can replay. A journal failure fails the submission.
	if err := s.storePut(js, s.seq); err != nil {
		return nil, fmt.Errorf("persisting submission: %w", err)
	}
	select {
	case s.queue <- js:
	default:
		s.storeEvict(js.id) // journaled but never admitted
		return nil, errQueueFull
	}
	s.jobs[js.id] = js
	s.order = append(s.order, js.id)
	s.evictOldestLocked()
	s.reg.Gauge("server.queue_depth").Set(float64(len(s.queue)))
	s.reg.Event("job.accepted", js.runID, map[string]string{
		"id": js.id, "job": engineID, "kind": string(js.job.Kind),
	})
	if s.log != nil {
		s.log.InfoContext(js.logCtx(), "job accepted", "id", js.id, "job", engineID, "kind", js.job.Kind, "queue_depth", len(s.queue))
	}
	return js, nil
}

// logCtx returns a context carrying the job's run ID, so slog lines
// emitted outside a request handler still correlate with the
// submission's X-Request-ID.
func (js *jobState) logCtx() context.Context {
	return telemetry.ContextWithRunID(context.Background(), js.runID)
}

// shortEngineID strips the "job-" prefix and truncates to 8 hex digits
// for embedding in submission IDs.
func shortEngineID(engineID string) string {
	const prefix = "job-"
	if len(engineID) > len(prefix) {
		engineID = engineID[len(prefix):]
	}
	if len(engineID) > 8 {
		engineID = engineID[:8]
	}
	return engineID
}

// evictOldestLocked forgets the oldest terminal jobs once the ledger
// exceeds RetainJobs. Called with mu held.
func (s *Server) evictOldestLocked() {
	excess := len(s.jobs) - s.cfg.RetainJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		js := s.jobs[id]
		if js == nil {
			continue
		}
		js.mu.Lock()
		evictable := js.status.terminal()
		js.mu.Unlock()
		if excess > 0 && evictable {
			delete(s.jobs, id)
			s.storeEvict(id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// lookup returns the job with the given submission ID.
func (s *Server) lookup(id string) (*jobState, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js, ok := s.jobs[id]
	return js, ok
}

// list returns every retained job in submission order.
func (s *Server) list() []*jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*jobState, 0, len(s.order))
	for _, id := range s.order {
		if js, ok := s.jobs[id]; ok {
			out = append(out, js)
		}
	}
	return out
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ready reports whether the server accepts new jobs.
func (s *Server) ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started && !s.draining
}

// worker runs queued jobs until drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.drainCh:
			return
		case js := <-s.queue:
			s.reg.Gauge("server.queue_depth").Set(float64(len(s.queue)))
			s.execute(js)
		}
	}
}

// execute runs one dequeued job to a terminal state. The run context
// carries the submission's request ID, so the engine adopts it as the
// run ID — one identifier correlates the access log, job logs, trace
// snapshot and flight recorder.
func (s *Server) execute(js *jobState) {
	if s.isDraining() {
		s.reject(js, "server shutting down before the job started")
		return
	}
	ctx, cancel := context.WithCancel(js.logCtx())
	defer cancel()
	js.mu.Lock()
	if js.status != statusQueued { // cancelled while queued
		js.mu.Unlock()
		return
	}
	js.status = statusRunning
	js.started = time.Now()
	js.cancel = cancel
	started := js.started
	js.mu.Unlock()
	s.storeUpdate(store.Update{ID: js.id, Status: string(statusRunning), Started: started})

	s.reg.Gauge("server.jobs_inflight").Set(float64(s.inflight.Add(1)))
	res, err := s.runJob(ctx, js.job, js.tracker.publish)
	s.reg.Gauge("server.jobs_inflight").Set(float64(s.inflight.Add(-1)))

	js.mu.Lock()
	js.finished = time.Now()
	switch {
	case err == nil:
		js.status = statusDone
		js.result = res
	case js.cancelRequested || errors.Is(err, context.Canceled):
		js.status = statusCancelled
		js.errMsg = err.Error()
	default:
		js.status = statusFailed
		js.errMsg = err.Error()
	}
	final := js.status
	update := store.Update{ID: js.id, Status: string(final), Error: js.errMsg, Finished: js.finished}
	js.mu.Unlock()
	if s.store != nil && final == statusDone && res != nil {
		raw, encErr := encodeResult(res)
		if encErr != nil {
			if s.log != nil {
				s.log.Warn("encoding job result for the ledger failed", "id", js.id, "error", encErr)
			}
		} else {
			update.Result = raw
		}
	}
	s.storeUpdate(update)
	s.reg.Counter("server.jobs_total." + string(final)).Inc()
	s.reg.Event("job."+string(final), js.runID, map[string]string{"id": js.id, "job": js.engineID})
	if s.log != nil {
		s.log.InfoContext(js.logCtx(), "job finished", "id", js.id, "status", string(final))
	}
	js.tracker.finish()
}

// reject marks a never-started job failed (used for queued jobs caught
// by shutdown).
func (s *Server) reject(js *jobState, reason string) {
	js.mu.Lock()
	if js.status.terminal() {
		js.mu.Unlock()
		return
	}
	js.status = statusFailed
	js.errMsg = reason
	finished := time.Now()
	js.finished = finished
	js.mu.Unlock()
	s.storeUpdate(store.Update{ID: js.id, Status: string(statusFailed), Error: reason, Finished: finished})
	s.reg.Counter("server.jobs_total." + string(statusFailed)).Inc()
	s.reg.Event("job.failed", js.runID, map[string]string{"id": js.id, "reason": reason})
	if s.log != nil {
		s.log.InfoContext(js.logCtx(), "job rejected", "id", js.id, "reason", reason)
	}
	js.tracker.finish()
}

// requestCancel asks for a job's cancellation: a queued job goes
// terminal immediately, a running job has its context cancelled (the
// worker records the terminal state when the engine returns), and a
// terminal job is left untouched.
func (s *Server) requestCancel(js *jobState) {
	js.mu.Lock()
	switch js.status {
	case statusQueued:
		js.status = statusCancelled
		js.errMsg = "cancelled before start"
		finished := time.Now()
		js.finished = finished
		js.mu.Unlock()
		s.storeUpdate(store.Update{ID: js.id, Status: string(statusCancelled), Error: "cancelled before start", Finished: finished})
		s.reg.Counter("server.jobs_total." + string(statusCancelled)).Inc()
		s.reg.Event("job.cancelled", js.runID, map[string]string{"id": js.id, "detail": "cancelled before start"})
		js.tracker.finish()
		return
	case statusRunning:
		js.cancelRequested = true
		cancel := js.cancel
		js.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return
	default:
		js.mu.Unlock()
	}
}

// Shutdown drains the server: new submissions are rejected with 503,
// queued jobs go terminal with a shutdown error, and in-flight jobs run
// to completion. If ctx expires first, running jobs are cancelled
// through their engine contexts and Shutdown waits for the (prompt)
// cancellation to land, returning ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	if !alreadyDraining {
		close(s.drainCh)
	}
	s.mu.Unlock()
	if !alreadyDraining {
		s.reg.Event("drain.begin", "", nil)
	}

	// Reject everything still queued. Workers racing on the same
	// channel reject too (execute checks draining first), so every
	// queued job lands terminal exactly once.
	for {
		select {
		case js := <-s.queue:
			s.reject(js, "server shutting down before the job started")
			continue
		default:
		}
		break
	}
	s.reg.Gauge("server.queue_depth").Set(0)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Grace expired: cancel running jobs and wait for the engine's
		// prompt cancellation path to unwind the workers.
		for _, js := range s.list() {
			s.requestCancel(js)
		}
		<-done
		return ctx.Err()
	}
}
