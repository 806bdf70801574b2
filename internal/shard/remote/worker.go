package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"mio/internal/core"
	"mio/internal/data"
	"mio/internal/durable"
	"mio/internal/fault"
	"mio/internal/shard"
)

// The worker's serving policy:
//   - maxRequestBytes caps how much of a request body it reads;
//     bound/complete/release requests are a handful of scalars;
//   - a paused bound phase left unresumed for handleTTL has its engine
//     reclaimed — the backstop for a coordinator that died between
//     bound and complete;
//   - a bound request waits at most acquireWait for a free engine
//     before answering 503.
const (
	maxRequestBytes = 1 << 20
	handleTTL       = 30 * time.Second
	acquireWait     = 500 * time.Millisecond
)

// WorkerConfig configures one shard worker process.
type WorkerConfig struct {
	// Index is this worker's shard id in [0, Shards); Shards is the
	// cluster's partition count (≥ 2). Both are baked into the stamp.
	Index  int
	Shards int
	// MaxR is the replica horizon; it must match the coordinator's
	// (both fold it into the generation). Unset: shard.Horizon's default.
	MaxR float64
	// Pool is the number of engine slots, which also bounds how many
	// bound phases can be paused at once. Default shard.SlotsPerQuery.
	Pool int
	// Faults, when non-nil, drives the worker-side injection points
	// (shard.run in the backend, stale-generation stamps, envelope
	// corruption).
	Faults *fault.Registry
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	c.MaxR = shard.Horizon(c.MaxR)
	if c.Pool <= 0 {
		c.Pool = shard.SlotsPerQuery
	}
	return c
}

// pending is one paused bound phase and when its handle expires.
type pending struct {
	bounds  shard.Bounds
	expires time.Time
}

// Worker serves one shard of the dataset over HTTP: a shard.LocalBackend
// — the same engine pool, panic handling and id mapping the in-process
// coordinator drives — behind a table of single-use handles, with every
// response stamped with the dataset generation. It partitions the full
// dataset exactly as the coordinator does (BuildPartition is
// deterministic).
type Worker struct {
	cfg     WorkerConfig
	stamp   Stamp
	backend *shard.LocalBackend
	ttl     time.Duration // handleTTL; tests shorten it

	mu      sync.Mutex
	handles map[uint64]*pending
	nextID  uint64
}

// NewWorker partitions ds for cfg.Index and builds the worker's
// backend. opts is the engine template (see shard.NewLocalBackend);
// cfg.Faults overrides opts.Faults.
func NewWorker(ds *data.Dataset, opts core.Options, cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults()
	if cfg.Index < 0 || cfg.Index >= cfg.Shards {
		return nil, fmt.Errorf("remote: shard index %d outside [0,%d)", cfg.Index, cfg.Shards)
	}
	part, err := shard.BuildPartition(ds, cfg.Shards, cfg.MaxR)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		opts.Faults = cfg.Faults
	}
	backend, err := shard.NewLocalBackend(part, ds, cfg.Index, opts, cfg.Pool, acquireWait)
	if err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	return &Worker{
		cfg:     cfg,
		stamp:   Stamp{Generation: Generation(Fingerprint(ds), cfg.Shards, cfg.MaxR), Shard: cfg.Index, Shards: cfg.Shards},
		backend: backend,
		ttl:     handleTTL,
		handles: make(map[uint64]*pending),
	}, nil
}

// Stamp returns the worker's generation stamp.
func (w *Worker) Stamp() Stamp { return w.stamp }

// Close abandons every paused bound phase. The HTTP server's lifecycle
// belongs to the caller.
func (w *Worker) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, p := range w.handles {
		delete(w.handles, id)
		p.bounds.Release()
	}
}

// Handler returns the worker's HTTP handler.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathShardz, w.handleShardz)
	mux.HandleFunc(PathBound, w.handleBound)
	mux.HandleFunc(PathComplete, w.handleComplete)
	mux.HandleFunc(PathRelease, w.handleRelease)
	return mux
}

// reap releases the slots held by expired handles — the lazy sweep run
// at the top of every request, so an idle worker holds stale slots no
// longer than handleTTL + one request gap.
func (w *Worker) reap() {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, p := range w.handles {
		if now.After(p.expires) {
			delete(w.handles, id)
			p.bounds.Release()
		}
	}
}

// respStamp is the stamp written into responses. The stale-generation
// fault point perturbs it, simulating a worker that restarted onto
// different data — the client must reject the answer, not merge it.
func (w *Worker) respStamp() Stamp {
	st := w.stamp
	if w.cfg.Faults.Fire(fault.PointStaleGen) != nil {
		st.Generation++
	}
	return st
}

// writeError answers with a JSON error body (not enveloped: errors are
// diagnostics, never merged).
func writeError(rw http.ResponseWriter, code int, msg string) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	_ = json.NewEncoder(rw).Encode(wireError{Error: msg})
}

// writeEnveloped seals v's JSON encoding in a durable envelope and
// writes it. The net-corrupt fault point flips a payload byte after
// sealing, so the client's CRC check — not luck — must catch it.
func (w *Worker) writeEnveloped(rw http.ResponseWriter, v any) {
	payload, err := json.Marshal(v)
	if err != nil {
		writeError(rw, http.StatusInternalServerError, err.Error())
		return
	}
	sealed := durable.Seal(payload)
	if w.cfg.Faults.Fire(fault.PointNetCorrupt) != nil && len(sealed) > durable.EnvelopeOverhead {
		sealed[durable.EnvelopeOverhead] ^= 0xFF
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.WriteHeader(http.StatusOK)
	_, _ = rw.Write(sealed)
}

// readRequest strictly decodes a size-capped JSON request body.
func readRequest(rw http.ResponseWriter, req *http.Request, v any) bool {
	if req.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, "POST required")
		return false
	}
	body, err := io.ReadAll(io.LimitReader(req.Body, maxRequestBytes+1))
	if err != nil {
		writeError(rw, http.StatusBadRequest, err.Error())
		return false
	}
	if len(body) > maxRequestBytes {
		writeError(rw, http.StatusRequestEntityTooLarge, "request body too large")
		return false
	}
	if err := decodeStrict(body, v); err != nil {
		writeError(rw, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

func (w *Worker) handleShardz(rw http.ResponseWriter, req *http.Request) {
	w.reap()
	counts := w.backend.Info().Counts
	w.mu.Lock()
	held := len(w.handles)
	w.mu.Unlock()
	w.writeEnveloped(rw, ShardzResponse{
		Stamp:     w.respStamp(),
		Objects:   counts.Objects,
		Primaries: counts.Primaries,
		Replicas:  counts.Replicas,
		Handles:   held,
	})
}

func (w *Worker) handleBound(rw http.ResponseWriter, req *http.Request) {
	w.reap()
	var br BoundRequest
	if !readRequest(rw, req, &br) {
		return
	}
	if math.IsNaN(br.R) || math.IsInf(br.R, 0) || br.R <= 0 {
		writeError(rw, http.StatusBadRequest, fmt.Sprintf("r must be a positive finite number, got %g", br.R))
		return
	}
	if br.R > w.cfg.MaxR {
		writeError(rw, http.StatusBadRequest, fmt.Sprintf("r=%g exceeds the replica horizon %g", br.R, w.cfg.MaxR))
		return
	}
	if br.K < 1 {
		writeError(rw, http.StatusBadRequest, fmt.Sprintf("k must be at least 1, got %d", br.K))
		return
	}
	b, err := w.backend.Bound(req.Context(), br.R, br.K)
	if err != nil {
		code := http.StatusInternalServerError
		switch {
		case errors.Is(err, shard.ErrNoSlot):
			code = http.StatusServiceUnavailable
		case errors.Is(err, core.ErrInvalidQuery):
			code = http.StatusBadRequest
		}
		writeError(rw, code, err.Error())
		return
	}
	w.mu.Lock()
	w.nextID++
	id := w.nextID
	w.handles[id] = &pending{bounds: b, expires: time.Now().Add(w.ttl)}
	w.mu.Unlock()
	w.writeEnveloped(rw, BoundResponse{
		Stamp:  w.respStamp(),
		Handle: id,
		TopLBs: b.TopLBs(),
		MaxUB:  b.MaxUB(),
		Stats:  b.Stats(),
	})
}

func (w *Worker) handleComplete(rw http.ResponseWriter, req *http.Request) {
	w.reap()
	var cr CompleteRequest
	if !readRequest(rw, req, &cr) {
		return
	}
	if cr.Floor < 0 {
		writeError(rw, http.StatusBadRequest, fmt.Sprintf("floor must be non-negative, got %d", cr.Floor))
		return
	}
	p, ok := w.takeHandle(cr.Handle)
	if !ok {
		writeError(rw, http.StatusNotFound, fmt.Sprintf("unknown or expired handle %d", cr.Handle))
		return
	}
	res, err := p.bounds.Complete(req.Context(), cr.Floor)
	if err != nil {
		writeError(rw, http.StatusInternalServerError, err.Error())
		return
	}
	w.writeEnveloped(rw, CompleteResponse{
		Stamp: w.respStamp(),
		TopK:  res.TopK,
		Stats: res.Stats,
	})
}

func (w *Worker) handleRelease(rw http.ResponseWriter, req *http.Request) {
	w.reap()
	var rr ReleaseRequest
	if !readRequest(rw, req, &rr) {
		return
	}
	if p, ok := w.takeHandle(rr.Handle); ok {
		p.bounds.Release()
	}
	w.writeEnveloped(rw, struct{}{})
}

// takeHandle removes and returns a paused bound phase. Single-use:
// complete and release both consume the handle.
func (w *Worker) takeHandle(id uint64) (*pending, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	p, ok := w.handles[id]
	if ok {
		delete(w.handles, id)
	}
	return p, ok
}
