package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mio/internal/core"
	"mio/internal/data"
	"mio/internal/fault"
	"mio/internal/server/metrics"
	"mio/internal/shard"
)

// Wire DTOs. Query results reuse the json-tagged core types; the
// envelopes below add the request echo and serving metadata.

type errorResponse struct {
	Error string `json:"error"`
}

type queryResponse struct {
	R         float64 `json:"r"`
	K         int     `json:"k"`
	Epoch     uint64  `json:"dataset_epoch"`
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced"`
	Sharded   bool    `json:"sharded,omitempty"`
	// Scatter reports the per-shard outcome of a sharded query:
	// states, attempts, hedges, the merged floor, pruning.
	Scatter *shard.Report `json:"scatter,omitempty"`
	Result  *core.Result  `json:"result"`
}

// queryValue is the cached/coalesced value of a /v1/query: the result
// plus, when a scatter–gather produced it, the scatter report.
type queryValue struct {
	res *core.Result
	rep *shard.Report
}

type interactingResponse struct {
	R         float64 `json:"r"`
	Obj       int     `json:"obj"`
	Epoch     uint64  `json:"dataset_epoch"`
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced"`
	Count     int     `json:"count"`
	IDs       []int   `json:"ids"`
}

// scoresPayload is the cached value for /v1/scores: the histogram and
// percentiles always, the raw score vector only when full=1.
type scoresPayload struct {
	N               int   `json:"n"`
	HistogramCounts []int `json:"histogram_counts"`
	HistogramWidth  int   `json:"histogram_width"`
	P50             int   `json:"p50"`
	P90             int   `json:"p90"`
	P99             int   `json:"p99"`
	Max             int   `json:"max"`
	Scores          []int `json:"scores,omitempty"`
}

type scoresResponse struct {
	R         float64        `json:"r"`
	Epoch     uint64         `json:"dataset_epoch"`
	Cached    bool           `json:"cached"`
	Coalesced bool           `json:"coalesced"`
	Result    *scoresPayload `json:"result"`
}

type sweepResponse struct {
	RS        []float64          `json:"rs"`
	K         int                `json:"k"`
	Epoch     uint64             `json:"dataset_epoch"`
	Cached    bool               `json:"cached"`
	Coalesced bool               `json:"coalesced"`
	Results   []core.SweepResult `json:"results"`
}

type healthResponse struct {
	Status   string  `json:"status"`
	Dataset  string  `json:"dataset"`
	Objects  int     `json:"objects"`
	Points   int     `json:"points"`
	Epoch    uint64  `json:"dataset_epoch"`
	Draining bool    `json:"draining"`
	UptimeS  float64 `json:"uptime_s"`
	// Shards reports per-shard serving status (object counts, breaker
	// state, last error, envelope depth) when sharded serving is on.
	Shards []shard.Health `json:"shards,omitempty"`
}

type swapRequest struct {
	Path string `json:"path"`
}

type swapResponse struct {
	Dataset string `json:"dataset"`
	Objects int    `json:"objects"`
	Epoch   uint64 `json:"dataset_epoch"`
}

// CacheStats is the cache section of MetricsSnapshot.
type CacheStats struct {
	Enabled   bool   `json:"enabled"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
}

// BreakerStats is the swap-breaker section of MetricsSnapshot.
type BreakerStats struct {
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Refused             uint64 `json:"refused_total"`
}

// ShardStats is the sharded-serving section of MetricsSnapshot:
// scatter/merge/hedge latency histograms, the fault-tolerance counters
// (cmd/mioload reads the deltas of these to report degraded-answer and
// retry/hedge rates per run), per-query pruning, and per-shard health.
type ShardStats struct {
	Shards        int     `json:"shards"`
	MaxR          float64 `json:"max_r"`
	DegradedTotal uint64  `json:"degraded_total"`
	HedgesTotal   uint64  `json:"hedges_total"`
	RetriesTotal  uint64  `json:"retries_total"`
	DownsTotal    uint64  `json:"downs_total"`
	// StaleTotal counts remote bound attempts that failed on a worker
	// serving another dataset generation (shard.Metrics.Stale);
	// BadResponsesTotal counts responses rejected by strict validation
	// (corrupt envelope, malformed or out-of-range payload). Always 0
	// for in-process shards.
	StaleTotal        uint64              `json:"stale_total"`
	BadResponsesTotal uint64              `json:"bad_responses_total"`
	ScatterLatency    metrics.Snapshot    `json:"scatter_latency"`
	MergeLatency      metrics.Snapshot    `json:"merge_latency"`
	HedgeLatency      metrics.Snapshot    `json:"hedge_latency"`
	PrunedPerQuery    metrics.IntSnapshot `json:"pruned_per_query"`
	PerShard          []shard.Health      `json:"per_shard"`
}

// MetricsSnapshot is the /metrics document. cmd/mioload decodes it to
// report server-side coalescing and cache effectiveness.
type MetricsSnapshot struct {
	UptimeS           float64                     `json:"uptime_s"`
	Dataset           string                      `json:"dataset"`
	Objects           int                         `json:"objects"`
	DatasetEpoch      uint64                      `json:"dataset_epoch"`
	InFlight          int64                       `json:"in_flight"`
	MaxInFlight       int                         `json:"max_in_flight"`
	CoalesceEnabled   bool                        `json:"coalesce_enabled"`
	Requests          map[string]uint64           `json:"requests_total"`
	EngineRuns        uint64                      `json:"engine_runs_total"`
	Coalesced         uint64                      `json:"coalesced_total"`
	AdmissionRejected uint64                      `json:"admission_rejected_total"`
	BadRequests       uint64                      `json:"bad_request_total"`
	Timeouts          uint64                      `json:"timeout_total"`
	DrainRejected     uint64                      `json:"drain_rejected_total"`
	Panics            uint64                      `json:"panic_total"`
	Degraded          uint64                      `json:"degraded_total"`
	SwapBreaker       BreakerStats                `json:"swap_breaker"`
	FaultsFired       map[string]uint64           `json:"faults_fired,omitempty"`
	Shards            *ShardStats                 `json:"shards,omitempty"`
	Cache             CacheStats                  `json:"cache"`
	IndexCache        core.IndexCacheStats        `json:"index_cache"`
	HTTPLatency       map[string]metrics.Snapshot `json:"http_latency"`
	PhaseLatency      map[string]metrics.Snapshot `json:"phase_latency"`
}

// Handler returns the server's HTTP API. Every route runs inside the
// panic-recovery middleware: a panicking handler yields a 500 and a
// panic_total tick instead of a killed connection.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/query", s.v1("query", s.handleQuery))
	mux.HandleFunc("GET /v1/interacting", s.v1("interacting", s.handleInteracting))
	mux.HandleFunc("GET /v1/scores", s.v1("scores", s.handleScores))
	mux.HandleFunc("GET /v1/sweep", s.v1("sweep", s.handleSweep))
	mux.HandleFunc("POST /v1/dataset", s.v1("swap", s.handleSwap))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s.recoverPanics(mux)
}

// recoverPanics is the outermost middleware: it converts handler
// panics into 500 responses and counts them. By the time a panic
// reaches here the inner layers have already cleaned up — withEngine
// released its pool slot and flight.Do released coalesced waiters with
// ErrLeaderPanicked — so recovery is safe: no lock is held and no slot
// is lost.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				// net/http's own sentinel for deliberately dropping the
				// connection; honour it.
				panic(rec)
			}
			s.m.panics.Inc()
			// If the handler already wrote a response this write is a
			// no-op on the status line; the counter is the reliable
			// signal either way.
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", rec))
		}()
		next.ServeHTTP(w, req)
	})
}

// v1 wraps a query endpoint with drain gating, per-endpoint counters
// and HTTP latency observation. Requests hold the drain read lock for
// their duration, so Drain's write lock doubles as the in-flight
// barrier.
func (s *Server) v1(kind string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		s.drainMu.RLock()
		defer s.drainMu.RUnlock()
		if s.draining {
			s.m.drainRejected.Inc()
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		s.m.requests[kind].Inc()
		if err := s.cfg.Faults.Fire(fault.PointRequest); err != nil {
			s.writeExecError(w, err)
			return
		}
		t0 := time.Now()
		h(w, req)
		s.m.httpLat[kind].Observe(time.Since(t0))
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, req *http.Request) {
	r, ok := s.parseR(w, req)
	if !ok {
		return
	}
	k, ok := s.parseIntParam(w, req, "k", 1, 1)
	if !ok {
		return
	}
	// degraded=1 opts into deadline degradation: when the query budget
	// expires mid-pipeline the client gets a 200 with Degraded set and
	// a certified [LB, UB] interval instead of a 504. Degraded and
	// exact requests coalesce separately (the answers differ).
	degrade := req.URL.Query().Get("degraded") == "1"
	epoch := s.epoch.Load()
	key := fmt.Sprintf("%d|query|%s|%d|d%v", epoch, rKey(r), k, degrade)
	val, cached, coalesced, err := s.execute(key, func() (any, error) {
		res, rep, err := s.runQuery(req.Context(), r, k, degrade)
		if err != nil {
			return nil, err
		}
		if res.Degraded {
			s.m.degraded.Inc()
		}
		return &queryValue{res: res, rep: rep}, nil
	})
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	qv := val.(*queryValue)
	writeJSON(w, http.StatusOK, queryResponse{
		R: r, K: k, Epoch: epoch, Cached: cached, Coalesced: coalesced,
		Sharded: qv.rep != nil, Scatter: qv.rep, Result: qv.res,
	})
}

func (s *Server) handleInteracting(w http.ResponseWriter, req *http.Request) {
	r, ok := s.parseR(w, req)
	if !ok {
		return
	}
	n := s.pool.Dataset().N()
	obj, ok := s.parseIntParam(w, req, "obj", -1, 0)
	if !ok {
		return
	}
	if req.URL.Query().Get("obj") == "" || obj >= n {
		s.badRequest(w, fmt.Sprintf("obj must be in [0, %d)", n))
		return
	}
	epoch := s.epoch.Load()
	key := fmt.Sprintf("%d|interacting|%s|%d", epoch, rKey(r), obj)
	val, cached, coalesced, err := s.execute(key, func() (any, error) {
		return s.withEngine(req.Context(), func(ctx context.Context, eng *core.Engine) (any, error) {
			return eng.InteractingSet(ctx, r, obj)
		})
	})
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	ids := val.([]int)
	writeJSON(w, http.StatusOK, interactingResponse{
		R: r, Obj: obj, Epoch: epoch, Cached: cached, Coalesced: coalesced,
		Count: len(ids), IDs: ids,
	})
}

func (s *Server) handleScores(w http.ResponseWriter, req *http.Request) {
	r, ok := s.parseR(w, req)
	if !ok {
		return
	}
	buckets, ok := s.parseIntParam(w, req, "buckets", 12, 1)
	if !ok {
		return
	}
	full := req.URL.Query().Get("full") == "1"
	epoch := s.epoch.Load()
	key := fmt.Sprintf("%d|scores|%s|%d|%v", epoch, rKey(r), buckets, full)
	val, cached, coalesced, err := s.execute(key, func() (any, error) {
		return s.withEngine(req.Context(), func(ctx context.Context, eng *core.Engine) (any, error) {
			scores, err := eng.AllScores(ctx, r)
			if err != nil {
				return nil, err
			}
			counts, width := core.ScoreHistogram(scores, buckets)
			p := &scoresPayload{
				N:               len(scores),
				HistogramCounts: counts,
				HistogramWidth:  width,
				P50:             core.TopPercentile(scores, 0.50),
				P90:             core.TopPercentile(scores, 0.90),
				P99:             core.TopPercentile(scores, 0.99),
				Max:             core.TopPercentile(scores, 1.0),
			}
			if full {
				p.Scores = scores
			}
			return p, nil
		})
	})
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, scoresResponse{
		R: r, Epoch: epoch, Cached: cached, Coalesced: coalesced,
		Result: val.(*scoresPayload),
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, req *http.Request) {
	rsParam := req.URL.Query().Get("rs")
	if rsParam == "" {
		s.badRequest(w, "missing rs (comma-separated thresholds)")
		return
	}
	parts := strings.Split(rsParam, ",")
	if len(parts) > s.cfg.MaxSweep {
		s.badRequest(w, fmt.Sprintf("sweep of %d thresholds exceeds the limit of %d", len(parts), s.cfg.MaxSweep))
		return
	}
	rs := make([]float64, 0, len(parts))
	for _, p := range parts {
		r, err := s.parseThreshold(p)
		if err != nil {
			s.badRequest(w, fmt.Sprintf("rs entry %q: %v", p, err))
			return
		}
		rs = append(rs, r)
	}
	k, ok := s.parseIntParam(w, req, "k", 1, 1)
	if !ok {
		return
	}
	epoch := s.epoch.Load()
	keys := make([]string, len(rs))
	for i, r := range rs {
		keys[i] = rKey(r)
	}
	key := fmt.Sprintf("%d|sweep|%s|%d", epoch, strings.Join(keys, ","), k)
	val, cached, coalesced, err := s.execute(key, func() (any, error) {
		return s.withEngine(req.Context(), func(ctx context.Context, eng *core.Engine) (any, error) {
			out, err := eng.Sweep(ctx, rs, k)
			if err != nil {
				return nil, err
			}
			for _, sr := range out {
				s.observePhases(sr.Result.Stats)
			}
			return out, nil
		})
	})
	if err != nil {
		s.writeExecError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sweepResponse{
		RS: rs, K: k, Epoch: epoch, Cached: cached, Coalesced: coalesced,
		Results: val.([]core.SweepResult),
	})
}

func (s *Server) handleSwap(w http.ResponseWriter, req *http.Request) {
	if !s.cfg.AllowSwap {
		writeError(w, http.StatusForbidden, "dataset swapping is disabled (start the server with swapping allowed)")
		return
	}
	// Validate the request before consulting the breaker: a malformed
	// body is the client's problem and must neither trip the breaker
	// nor consume its half-open probe.
	var sr swapRequest
	if err := json.NewDecoder(req.Body).Decode(&sr); err != nil || sr.Path == "" {
		s.badRequest(w, `body must be {"path": "<dataset file>"}`)
		return
	}
	if retry, ok := s.swapBreaker.Allow(); !ok {
		s.m.swapRefused.Inc()
		secs := int(retry/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("dataset swapping suspended after repeated failures; retry in %ds", secs))
		return
	}
	// From here every outcome must be reported to the breaker, or a
	// half-open probe would never resolve.
	if err := s.cfg.Faults.Fire(fault.PointSwapLoad); err != nil {
		s.swapBreaker.Failure()
		s.writeExecError(w, err)
		return
	}
	ds, err := data.LoadFile(sr.Path)
	if err != nil {
		s.swapBreaker.Failure()
		s.badRequest(w, fmt.Sprintf("loading dataset: %v", err))
		return
	}
	if err := s.SwapDataset(ds); err != nil {
		s.swapBreaker.Failure()
		s.badRequest(w, err.Error())
		return
	}
	s.swapBreaker.Success()
	writeJSON(w, http.StatusOK, swapResponse{
		Dataset: ds.Name, Objects: ds.N(), Epoch: s.epoch.Load(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.drainMu.RLock()
	draining := s.draining
	s.drainMu.RUnlock()
	ds := s.pool.Dataset()
	status := "ok"
	if draining {
		status = "draining"
	}
	resp := healthResponse{
		Status: status, Dataset: ds.Name, Objects: ds.N(), Points: ds.TotalPoints(),
		Epoch: s.epoch.Load(), Draining: draining,
		UptimeS: time.Since(s.start).Seconds(),
	}
	if co := s.coord.Load(); co != nil {
		resp.Shards = co.Health()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	withBuckets := req.URL.Query().Get("buckets") == "1"
	hits, misses, evictions := s.cache.Stats()
	ds := s.pool.Dataset()
	snap := MetricsSnapshot{
		UptimeS:           time.Since(s.start).Seconds(),
		Dataset:           ds.Name,
		Objects:           ds.N(),
		DatasetEpoch:      s.epoch.Load(),
		InFlight:          s.m.inFlight.Value(),
		MaxInFlight:       s.pool.Cap(),
		CoalesceEnabled:   !s.cfg.DisableCoalesce,
		Requests:          make(map[string]uint64, len(endpointKinds)),
		EngineRuns:        s.m.engineRuns.Value(),
		Coalesced:         s.m.coalesced.Value(),
		AdmissionRejected: s.m.rejected.Value(),
		BadRequests:       s.m.badRequests.Value(),
		Timeouts:          s.m.timeouts.Value(),
		DrainRejected:     s.m.drainRejected.Value(),
		Panics:            s.m.panics.Value(),
		Degraded:          s.m.degraded.Value(),
		SwapBreaker: BreakerStats{
			State:               s.swapBreaker.State().String(),
			ConsecutiveFailures: s.swapBreaker.Failures(),
			Refused:             s.m.swapRefused.Value(),
		},
		FaultsFired: s.cfg.Faults.Counts(),
		Shards:      s.shardStats(withBuckets),
		Cache: CacheStats{
			Enabled: !s.cfg.DisableCache, Hits: hits, Misses: misses,
			Evictions: evictions, Size: s.cache.Len(), Capacity: s.cache.Cap(),
		},
		IndexCache:   s.pool.IndexCache(),
		HTTPLatency:  make(map[string]metrics.Snapshot, len(endpointKinds)),
		PhaseLatency: make(map[string]metrics.Snapshot, len(phaseNames)),
	}
	if co := s.coord.Load(); co != nil {
		// Shard pools count on top of the server's own, which serves
		// the radii beyond the replica horizon.
		snap.IndexCache = snap.IndexCache.Add(co.IndexCache())
	}
	for _, k := range endpointKinds {
		snap.Requests[k] = s.m.requests[k].Value()
		snap.HTTPLatency[k] = s.m.httpLat[k].Snapshot(withBuckets)
	}
	for _, p := range phaseNames {
		snap.PhaseLatency[p] = s.m.phaseLat[p].Snapshot(withBuckets)
	}
	writeJSON(w, http.StatusOK, snap)
}

// shardStats snapshots the coordinator for /metrics, or nil when
// sharded serving is off.
func (s *Server) shardStats(withBuckets bool) *ShardStats {
	co := s.coord.Load()
	if co == nil {
		return nil
	}
	m := co.Metrics()
	return &ShardStats{
		Shards:            co.Shards(),
		MaxR:              co.MaxR(),
		DegradedTotal:     m.Degraded.Value(),
		HedgesTotal:       m.Hedges.Value(),
		RetriesTotal:      m.Retries.Value(),
		DownsTotal:        m.Downs.Value(),
		StaleTotal:        m.Stale.Value(),
		BadResponsesTotal: m.Bad.Value(),
		ScatterLatency:    m.Scatter.Snapshot(withBuckets),
		MergeLatency:      m.Merge.Snapshot(withBuckets),
		HedgeLatency:      m.Hedge.Snapshot(withBuckets),
		PrunedPerQuery:    m.Pruned.Snapshot(withBuckets),
		PerShard:          co.Health(),
	}
}

// ---- parsing and writing helpers ----

// parseR extracts the mandatory positive distance threshold.
func (s *Server) parseR(w http.ResponseWriter, req *http.Request) (float64, bool) {
	raw := req.URL.Query().Get("r")
	if raw == "" {
		s.badRequest(w, "missing r (distance threshold)")
		return 0, false
	}
	r, err := s.parseThreshold(raw)
	if err != nil {
		s.badRequest(w, fmt.Sprintf("r=%q: %v", raw, err))
		return 0, false
	}
	return r, true
}

// parseThreshold parses one distance threshold and holds it against
// the current dataset (positive, not NaN, cell keys within int32): a
// threshold no engine would accept is the client's error and must be
// turned away here, before it queues for an engine or fans out to
// shards, where the refusal would read as a shard failure.
func (s *Server) parseThreshold(raw string) (float64, error) {
	r, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
	if err != nil {
		return 0, errors.New("not a number")
	}
	return r, s.pool.ValidateR(r)
}

// parseIntParam extracts an optional integer parameter with a default
// and a minimum.
func (s *Server) parseIntParam(w http.ResponseWriter, req *http.Request, name string, def, minVal int) (int, bool) {
	raw := req.URL.Query().Get(name)
	if raw == "" {
		return def, true
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < minVal {
		s.badRequest(w, fmt.Sprintf("%s=%q is not an integer ≥ %d", name, raw, minVal))
		return 0, false
	}
	return v, true
}

func (s *Server) badRequest(w http.ResponseWriter, msg string) {
	s.m.badRequests.Inc()
	writeError(w, http.StatusBadRequest, msg)
}

func (s *Server) writeExecError(w http.ResponseWriter, err error) {
	code := s.statusFor(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, code, err.Error())
}

// rKey renders r for use in cache/flight keys: full precision so
// distinct thresholds never collide.
func rKey(r float64) string { return strconv.FormatFloat(r, 'g', 17, 64) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// An encode failure here means the client hung up mid-write;
	// there is nobody left to report it to.
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
