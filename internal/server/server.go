// Package server implements the long-lived MIO serving layer: an
// HTTP API over one resident dataset and a pooled query engine,
// with the machinery a production front-end needs wrapped around the
// paper's pipeline:
//
//   - request coalescing (internal/server/flight): concurrent
//     identical queries collapse into one engine run;
//   - a bounded LRU result cache (internal/server/cache) keyed by the
//     full query identity including the dataset epoch, so a dataset
//     swap invalidates every stale entry;
//   - admission control: engine runs are bounded by the engine pool's
//     slots (core.Pool); requests wait at most AdmissionWait for a slot
//     and are rejected with 429 under overload, 503 while draining;
//   - per-request deadlines wired through the engine's Context query
//     variants;
//   - /metrics counters and per-phase latency histograms built on
//     core.PhaseStats.
//
// The request path is: parse → cache lookup → coalesce → admission →
// engine run → cache fill (Server.execute). /v1/query has one handler;
// what "engine run" means for it — a pooled engine or a scatter–gather
// over shards — is fixed at construction.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/fault"
	"mio/internal/server/breaker"
	"mio/internal/server/cache"
	"mio/internal/server/flight"
	"mio/internal/server/metrics"
	"mio/internal/shard"
	"mio/internal/shard/remote"
)

// Config tunes the serving machinery. The zero value selects sensible
// defaults (see the field comments); explicit negatives disable the
// optional behaviours.
type Config struct {
	// MaxInFlight bounds concurrent engine runs: the engine pool's
	// slots, which share one engine. Default 1.
	MaxInFlight int
	// AdmissionWait is how long a request may queue for an engine slot
	// before being rejected with 429. 0 selects 100ms; negative
	// rejects immediately when no slot is free.
	AdmissionWait time.Duration
	// QueryTimeout is the per-request engine deadline. 0 selects 30s;
	// negative disables the deadline.
	QueryTimeout time.Duration
	// CacheSize is the result cache capacity in entries. 0 selects
	// 256. Use DisableCache to turn caching off.
	CacheSize int
	// DisableCache bypasses the result cache entirely.
	DisableCache bool
	// DisableCoalesce bypasses single-flight request coalescing.
	DisableCoalesce bool
	// AllowSwap enables POST /v1/dataset (loading a new dataset from a
	// server-local path). Off by default: the endpoint reads the
	// server's filesystem, so it must be an explicit operator choice.
	AllowSwap bool
	// MaxSweep bounds the number of thresholds a single /v1/sweep may
	// request. 0 selects 64.
	MaxSweep int
	// State, when non-nil, makes the served dataset durable: SwapDataset
	// commits the replacement as a new generation (dataset enveloped and
	// fsync'd, MANIFEST updated) before any engine serves it, and the
	// per-generation label store becomes the pool's shared store. A
	// failed durable commit fails the swap — and therefore counts
	// against the swap circuit breaker — leaving the previous generation
	// last-good; there is no path to serving a dataset that would not
	// survive a crash. Callers that recover or commit at startup (see
	// cmd/miosrv) pass the same DurableState here.
	State *DurableState
	// Faults, when non-nil, arms fault injection: the registry fires at
	// the server's request/acquire/run/swap points and is handed to
	// every engine the server builds (phase points), unless the engine
	// options already carry their own registry. Production servers
	// leave it nil.
	Faults *fault.Registry
	// Shards routes /v1/query through the sharded scatter–gather
	// coordinator (internal/shard): the dataset is partitioned across
	// this many in-process shard engines, each query scatters per-shard
	// bound requests and merges the certified results, and shard
	// failures degrade the answer to a certified [LB, UB] interval instead
	// of an error. Queries whose r exceeds ShardMaxR fall back to the
	// solo engine pool. 0 disables. See Validate for what it combines
	// with.
	Shards int
	// ShardMaxR is the partition's replica horizon: the largest radius
	// the shards can answer exactly. 0 selects 10.
	ShardMaxR float64
	// ShardRetries is the per-shard retry budget after the first failed
	// attempt. 0 selects 1; negative disables retries.
	ShardRetries int
	// ShardHedgeAfter launches one speculative extra attempt against a
	// straggling shard after this duration. 0 selects
	// shard.DefaultTimeout/4; negative disables hedging.
	ShardHedgeAfter time.Duration
	// ShardBreakCooldown is how long a shard's open circuit breaker
	// refuses attempts before its half-open probe. 0 selects 5s.
	ShardBreakCooldown time.Duration
	// ShardAddrs routes /v1/query through REMOTE shard worker processes
	// at these base URLs (one per partition slot, in shard-id order, ≥ 2)
	// instead of in-process shard engines — the multi-process deployment
	// of the same scatter–gather algebra (DESIGN.md §17). The server
	// still loads the full dataset: it computes the dataset generation
	// every worker response must be stamped with, and it serves queries
	// beyond ShardMaxR from its own engine pool. See Validate for what it
	// combines with.
	ShardAddrs []string

	// In-package tests shorten the swap breaker through these; 0
	// selects swapBreakThreshold and swapBreakCooldown.
	swapBreakThreshold int
	swapBreakCooldown  time.Duration
}

// The swap circuit breaker: this many consecutive dataset-swap failures
// (load, engine build or durable commit) trip it, after which swap
// requests fail fast with 503 + Retry-After instead of re-reading a
// broken file, until the cooldown admits a probe.
const (
	swapBreakThreshold = 3
	swapBreakCooldown  = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 1
	}
	if c.AdmissionWait == 0 {
		c.AdmissionWait = 100 * time.Millisecond
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = 30 * time.Second
	}
	if c.CacheSize < 1 {
		c.CacheSize = 256
	}
	if c.MaxSweep < 1 {
		c.MaxSweep = 64
	}
	if c.swapBreakThreshold < 1 {
		c.swapBreakThreshold = swapBreakThreshold
	}
	if c.swapBreakCooldown <= 0 {
		c.swapBreakCooldown = swapBreakCooldown
	}
	return c
}

// Validate reports settings that contradict each other. Shards and
// ShardAddrs each select what answers /v1/query — in-process or remote
// scatter–gather — so at most one may be set. New calls it; cmd/miosrv
// calls it before loading a dataset, so a bad invocation fails in
// milliseconds.
func (c Config) Validate() error {
	if c.Shards > 0 && len(c.ShardAddrs) > 0 {
		return errors.New("server: Shards (-shards) and ShardAddrs (-shards-at) are mutually exclusive: each owns /v1/query routing")
	}
	if n := len(c.ShardAddrs); n == 1 {
		return fmt.Errorf("server: need at least 2 shard workers, got %d", n)
	}
	return nil
}

// Server is a long-lived MIO query server over one dataset.
type Server struct {
	cfg Config

	// pool holds the engines, the (dataset, options) they are built
	// from, and with them admission: a request must hold an engine to
	// run.
	pool  *core.Pool
	epoch atomic.Uint64

	// swapBreaker trips after repeated dataset-swap failures so broken
	// files stop being re-read on every request.
	swapBreaker *breaker.Breaker

	flight flight.Group
	cache  *cache.Cache

	// coord, when non-nil, is the scatter–gather coordinator that
	// answers /v1/query (runQuery). It owns its own per-shard engine
	// pools; SwapDataset replaces it wholesale with one built over the
	// new dataset.
	coord atomic.Pointer[shard.Coordinator]

	// drainMu realises graceful drain: every request holds the read
	// lock for its duration; Drain takes the write lock, which waits
	// for in-flight requests, then flips draining so later requests
	// are refused with 503.
	drainMu  sync.RWMutex
	draining bool

	swapMu sync.Mutex // serialises dataset swaps

	start time.Time
	m     serverMetrics

	// testRunBarrier, when set by tests, runs while an engine slot is
	// held — it lets tests hold queries in flight deterministically.
	testRunBarrier func()
}

// endpoints enumerated for per-endpoint metrics.
var endpointKinds = []string{"query", "interacting", "scores", "sweep", "swap"}

type serverMetrics struct {
	requests map[string]*metrics.Counter
	httpLat  map[string]*metrics.Histogram
	phaseLat map[string]*metrics.Histogram

	engineRuns    metrics.Counter
	coalesced     metrics.Counter
	rejected      metrics.Counter
	badRequests   metrics.Counter
	timeouts      metrics.Counter
	drainRejected metrics.Counter
	panics        metrics.Counter // handler panics recovered by middleware
	degraded      metrics.Counter // deadline-degraded answers served
	swapRefused   metrics.Counter // swaps refused by the open breaker
	inFlight      metrics.Gauge
}

var phaseNames = []string{"label_input", "grid_mapping", "lower_bounding", "upper_bounding", "verification", "total"}

// init builds the per-endpoint and per-phase maps in place (the
// struct embeds atomics, so it must never be copied).
func (m *serverMetrics) init() {
	m.requests = make(map[string]*metrics.Counter)
	m.httpLat = make(map[string]*metrics.Histogram)
	m.phaseLat = make(map[string]*metrics.Histogram)
	for _, k := range endpointKinds {
		m.requests[k] = &metrics.Counter{}
		m.httpLat[k] = metrics.NewHistogram(nil)
	}
	for _, p := range phaseNames {
		m.phaseLat[p] = metrics.NewHistogram(nil)
	}
}

// New builds a server over ds with an engine configured from engOpts
// and cfg.MaxInFlight query slots. When engOpts.Labels is non-nil every
// query shares the store.
func New(ds *data.Dataset, engOpts core.Options, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if engOpts.Faults == nil {
		engOpts.Faults = cfg.Faults
	}
	pool, err := core.NewPool(ds, engOpts, cfg.MaxInFlight)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := newFromPool(pool, cfg)
	if cfg.Shards > 0 || len(cfg.ShardAddrs) > 0 {
		co, err := s.newCoordinator(ds, engOpts)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.coord.Store(co)
	}
	return s, nil
}

// newCoordinator builds the scatter–gather coordinator the Config asks
// for over ds: in-process shard engines, or clients of the remote
// workers.
func (s *Server) newCoordinator(ds *data.Dataset, opts core.Options) (*shard.Coordinator, error) {
	if s.cfg.Shards > 0 {
		return shard.New(ds, opts, s.shardConfig())
	}
	return s.remoteCoordinator(ds)
}

// remoteCoordinator builds a scatter–gather coordinator over the
// configured remote shard workers. The generation stamp is derived
// from the server's own copy of the dataset plus the partition shape
// — workers that loaded anything else are rejected at validation,
// not merged.
func (s *Server) remoteCoordinator(ds *data.Dataset) (*shard.Coordinator, error) {
	cfg := s.shardConfig()
	shards := len(s.cfg.ShardAddrs)
	gen := remote.Generation(remote.Fingerprint(ds), shards, shard.Horizon(cfg.MaxR))
	backends := make([]shard.Backend, shards)
	for i, addr := range s.cfg.ShardAddrs {
		backends[i] = remote.NewClient(remote.ClientConfig{
			Addr:    addr,
			Stamp:   remote.Stamp{Generation: gen, Shard: i, Shards: shards},
			Objects: ds.N(),
			Faults:  s.cfg.Faults,
		})
	}
	co, err := shard.NewWithBackends(backends, ds.N(), cfg)
	if err != nil {
		for _, b := range backends {
			b.Close()
		}
		return nil, err
	}
	return co, nil
}

// shardConfig maps the server's shard tuning onto the coordinator's.
// Each shard's pool provisions shard.SlotsPerQuery slots per admitted
// query — slow attempts must never starve a concurrent query's healthy
// ones.
func (s *Server) shardConfig() shard.Config {
	return shard.Config{
		Shards:        s.cfg.Shards,
		MaxR:          s.cfg.ShardMaxR,
		Retries:       s.cfg.ShardRetries,
		HedgeAfter:    s.cfg.ShardHedgeAfter,
		Pool:          shard.SlotsPerQuery * s.cfg.MaxInFlight,
		BreakCooldown: s.cfg.ShardBreakCooldown,
		Faults:        s.cfg.Faults,
	}
}

// NewFromEngine wraps one existing engine — the embedding path behind
// mio.Handler. The pool has exactly one slot regardless of
// cfg.MaxInFlight, honouring the public mio.Engine's
// one-query-at-a-time contract.
func NewFromEngine(e *core.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	cfg.MaxInFlight = 1
	return newFromPool(core.NewPoolOf(e), cfg)
}

func newFromPool(pool *core.Pool, cfg Config) *Server {
	s := &Server{
		cfg:         cfg,
		pool:        pool,
		cache:       cache.New(cfg.CacheSize),
		swapBreaker: breaker.New(cfg.swapBreakThreshold, cfg.swapBreakCooldown),
		start:       time.Now(),
	}
	s.m.init()
	return s
}

// runSolo answers a query from one pooled engine.
func (s *Server) runSolo(ctx context.Context, r float64, k int, degrade bool) (*core.Result, *shard.Report, error) {
	v, err := s.withEngine(ctx, func(ctx context.Context, eng *core.Engine) (any, error) {
		res, err := eng.RunTopKContext(ctx, r, k, degrade)
		if err == nil {
			s.observePhases(res.Stats)
		}
		return res, err
	})
	if err != nil {
		return nil, nil, err
	}
	return v.(*core.Result), nil, nil
}

// runQuery answers one /v1/query cache miss; rep is non-nil exactly
// when a scatter–gather produced the answer. With a coordinator the
// query scatters over its shards, which own admission (per-shard engine
// pools) and fault tolerance: shard failures come back as a Degraded
// result with a certified interval, whether or not the client asked for
// degradation. Without one, and for queries beyond the replica horizon,
// which the shards cannot answer exactly, one pooled engine answers
// (runSolo).
func (s *Server) runQuery(ctx context.Context, r float64, k int, degrade bool) (res *core.Result, rep *shard.Report, err error) {
	co := s.coord.Load()
	if co == nil || r > co.MaxR() {
		return s.runSolo(ctx, r, k, degrade)
	}
	ctx, cancel := s.deadline(ctx)
	defer cancel()
	s.m.inFlight.Inc()
	defer s.m.inFlight.Dec()
	res, rep, err = co.Query(ctx, r, k)
	if err == nil {
		s.observePhases(res.Stats)
	}
	return res, rep, err
}

// deadline applies the per-request QueryTimeout on top of ctx.
func (s *Server) deadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.QueryTimeout > 0 {
		return context.WithTimeout(ctx, s.cfg.QueryTimeout)
	}
	return ctx, func() {}
}

// Dataset returns the currently served dataset.
func (s *Server) Dataset() *data.Dataset { return s.pool.Dataset() }

// MaxInFlight returns the engine-pool size in effect.
func (s *Server) MaxInFlight() int { return s.pool.Cap() }

// Epoch returns the dataset generation; it increments on every swap.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// SwapDataset atomically replaces the served dataset: with durable
// state configured it first commits ds as a new generation, then
// swaps the engine pool onto it (with a fresh label store — labels are
// per-dataset and must not survive a swap; per-generation on disk
// when durable, in-memory otherwise), which waits for in-flight engine
// runs to finish, bumps the epoch and clears the result cache.
func (s *Server) SwapDataset(ds *data.Dataset) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()

	if err := s.cfg.Faults.Fire(fault.PointSwapBuild); err != nil {
		return fmt.Errorf("server: swap rejected: %w", err)
	}
	opts := s.pool.Options()
	// Durability first: the new dataset must be committed as a
	// generation before anything serves it, so a crash mid-swap
	// recovers to either the old or the complete new dataset — never to
	// a half-swapped state. A failed commit publishes nothing (the old
	// MANIFEST still names the old generation) and fails the swap, which
	// the caller reports to the swap breaker like any other failure.
	var prevGen uint64
	var prevOK bool
	if s.cfg.State != nil {
		var err error
		if prevGen, prevOK, err = s.cfg.State.LastGood(); err != nil {
			return fmt.Errorf("server: swap rejected: %w", err)
		}
		store, _, err := s.cfg.State.CommitDataset(ds)
		if err != nil {
			return fmt.Errorf("server: swap rejected: durable commit: %w", err)
		}
		if opts.Labels != nil {
			opts.Labels = store
		}
	} else if opts.Labels != nil {
		// Fresh in-memory store: labels are per-dataset and must not
		// survive a swap.
		opts.Labels = labelstore.NewStore()
	}
	// The generation is committed; if it cannot be served after all,
	// keep the MANIFEST honest about what is actually running.
	reject := func(err error) error {
		if s.cfg.State != nil {
			s.cfg.State.rollbackManifest(prevGen, prevOK)
		}
		return fmt.Errorf("server: swap rejected: %w", err)
	}
	// The coordinator is rebuilt over the new dataset before anything is
	// installed, so a failed shard build rejects the whole swap. Metrics
	// carry over: counters describe the serving process, not one
	// partition. Remote workers keep serving the OLD generation until
	// they are redeployed with the new dataset; the fresh coordinator's
	// stamp rejects their answers, so queries degrade (never mix
	// generations) until the fleet catches up.
	old := s.coord.Load()
	var coord *shard.Coordinator
	if old != nil {
		var err error
		if coord, err = s.newCoordinator(ds, opts); err != nil {
			return reject(err)
		}
		coord.AdoptMetrics(old.Metrics())
	}
	// Builds the new engines, then waits for in-flight runs to finish.
	if err := s.pool.Swap(ds, opts); err != nil {
		if coord != nil {
			coord.Close()
		}
		return reject(err)
	}
	if coord != nil {
		s.coord.Store(coord)
		// Closes the old coordinator's idle worker connections;
		// in-flight queries that already loaded it still complete.
		old.Close()
	}
	s.epoch.Add(1)
	s.cache.Clear()
	return nil
}

// Drain blocks until every in-flight request has completed, then
// makes the server refuse new work with 503. /healthz and /metrics
// keep responding so orchestrators can watch the drain.
func (s *Server) Drain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	if co := s.coord.Load(); co != nil {
		// Closes idle remote worker connections; Close is idempotent
		// and /healthz keeps serving the last-known shard states.
		co.Close()
	}
}

// withEngine runs fn holding a slot of the pool, with the per-request
// deadline applied on top of the caller's context. The slot goes back
// however fn ends; a panic continues to flight and the recovery
// middleware.
func (s *Server) withEngine(ctx context.Context, fn func(context.Context, *core.Engine) (any, error)) (any, error) {
	if err := s.cfg.Faults.Fire(fault.PointAcquire); err != nil {
		return nil, err
	}
	eng, err := s.pool.Acquire(ctx, s.cfg.AdmissionWait)
	if err != nil {
		if errors.Is(err, core.ErrPoolBusy) {
			s.m.rejected.Inc()
		}
		return nil, err
	}
	defer s.pool.Release()
	s.m.inFlight.Inc()
	defer s.m.inFlight.Dec()
	if s.testRunBarrier != nil {
		s.testRunBarrier()
	}
	ctx, cancel := s.deadline(ctx)
	defer cancel()
	if err := s.cfg.Faults.Fire(fault.PointRun); err != nil {
		return nil, err
	}
	s.m.engineRuns.Inc()
	return fn(ctx, eng)
}

// execute is the shared request path: cache lookup, then coalesced
// execution of the leader function, then cache fill.
func (s *Server) execute(key string, fn func() (any, error)) (val any, cached, coalesced bool, err error) {
	if !s.cfg.DisableCache {
		if v, ok := s.cache.Get(key); ok {
			return v, true, false, nil
		}
	}
	wrapped := func() (any, error) {
		v, err := fn()
		if err == nil && !s.cfg.DisableCache && cacheable(v) {
			s.cache.Put(key, v)
		}
		return v, err
	}
	if s.cfg.DisableCoalesce {
		v, err := wrapped()
		return v, false, false, err
	}
	v, err, shared := s.flight.Do(key, wrapped)
	if shared {
		s.m.coalesced.Inc()
	}
	return v, false, shared, err
}

// cacheable reports whether a successful result may enter the result
// cache. Degraded answers are partial — replaying one to a later
// caller would hide the exact answer that caller had time to compute.
func cacheable(v any) bool {
	qv, ok := v.(*queryValue)
	return !ok || !qv.res.Degraded
}

// observePhases feeds one query's PhaseStats into the per-phase
// latency histograms.
func (s *Server) observePhases(st core.PhaseStats) {
	s.m.phaseLat["label_input"].Observe(st.LabelInput)
	s.m.phaseLat["grid_mapping"].Observe(st.GridMapping)
	s.m.phaseLat["lower_bounding"].Observe(st.LowerBounding)
	s.m.phaseLat["upper_bounding"].Observe(st.UpperBounding)
	s.m.phaseLat["verification"].Observe(st.Verification)
	s.m.phaseLat["total"].Observe(st.Total())
}

// statusFor maps an execution error to its HTTP status.
func (s *Server) statusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrPoolBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrInvalidQuery):
		// parseThreshold turns these away up front; one gets this far
		// when a dataset swap shrank the valid range in between.
		return http.StatusBadRequest
	case errors.Is(err, shard.ErrAllShardsDown):
		// Nothing left to certify even an interval with; distinct from
		// a timeout — per-shard failures never surface as 504.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		s.m.timeouts.Inc()
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is written to a dead
		// connection, but pick one that is honest in logs.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
