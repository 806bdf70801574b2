package shard

import (
	"errors"
	"sort"
	"sync"
	"time"

	"mio/internal/server/breaker"
)

// ErrBreakerOpen marks a shard attempt refused by its open circuit
// breaker: the shard is treated as down for this query without paying
// an engine run (or a network round trip), and recovers through the
// breaker's half-open probe.
var ErrBreakerOpen = errors.New("shard: breaker open")

// SlotsPerQuery is how many engine slots one admitted query may hold
// on one shard at once: the original attempt and its hedge. Every pool
// a shard query runs on — each in-process shard's (Config.Pool), each
// remote worker's (WorkerConfig.Pool) — provisions this many per
// concurrent query, or slow attempts starve healthy ones out of slots.
const SlotsPerQuery = 2

// envelopeCap bounds the per-shard upper-bound envelope (distinct
// radii remembered). Serving workloads draw from a handful of
// thresholds, so eviction is effectively never hit.
const envelopeCap = 128

// Shard is the coordinator's per-shard control block: a transport
// backend (in-process engine pool or remote HTTP worker), a circuit
// breaker, and the last-known upper-bound envelope that certifies
// degraded answers when the shard cannot be reached.
type Shard struct {
	id      int
	backend Backend
	br      *breaker.Breaker

	mu        sync.Mutex
	lastErr   string
	lastErrAt time.Time
	envelope  map[float64]int // query radius → MaxUB recorded at it
}

// newShard wraps backend as shard id.
func newShard(id int, backend Backend, brCooldown time.Duration) *Shard {
	return &Shard{
		id:       id,
		backend:  backend,
		br:       breaker.New(DefaultBreakThreshold, brCooldown),
		envelope: make(map[float64]int, 8),
	}
}

// noteError records the shard's most recent failure for /healthz.
func (sh *Shard) noteError(err error) {
	sh.mu.Lock()
	sh.lastErr = err.Error()
	sh.lastErrAt = time.Now()
	sh.mu.Unlock()
}

// recordEnvelope remembers MaxUB observed for radius r after a
// successful bound phase. τ^upp is computed from the grid at r, and
// scores are monotone in the radius, so the recorded value upper-bounds
// every primary's score at any radius ≤ r — the "last-known envelope"
// degraded answers fall back on.
func (sh *Shard) recordEnvelope(r float64, maxUB int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.envelope) >= envelopeCap {
		if _, exists := sh.envelope[r]; !exists {
			// Evict the largest radius: it certifies the widest range but
			// is also the loosest bound; any deterministic choice works.
			worst := r
			for rr := range sh.envelope {
				if rr > worst {
					worst = rr
				}
			}
			if worst == r {
				return
			}
			delete(sh.envelope, worst)
		}
	}
	sh.envelope[r] = maxUB
}

// envelopeUB returns the tightest recorded upper bound valid at radius
// r: the smallest value among entries recorded at radii ≥ r. ok is
// false when no entry certifies r — the caller falls back to the
// trivial bound.
func (sh *Shard) envelopeUB(r float64) (int, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	best, ok := 0, false
	for rr, ub := range sh.envelope {
		if rr >= r && (!ok || ub < best) {
			best, ok = ub, true
		}
	}
	return best, ok
}

// Health is one shard's status line in /healthz: what the shard holds,
// how reachable it is, and why answers might be degrading.
type Health struct {
	ID int `json:"id"`
	// Counts is what an in-process shard holds; absent for a remote
	// worker, whose own /shardz reports it.
	*Counts
	// State is the shard's liveness, derived from its breaker the same
	// way for every shard (ProbeUp, ProbeSuspect, ProbeDown).
	State   string `json:"state"`
	Breaker string `json:"breaker"`
	// Addr and Generation identify a remote worker and the dataset
	// generation the coordinator expects of it; absent for in-process
	// shards.
	Addr       string `json:"addr,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
	// LastError is the most recent attempt failure ("" when the shard
	// has never failed); LastErrorAgoS is how long ago it happened.
	LastError     string  `json:"last_error,omitempty"`
	LastErrorAgoS float64 `json:"last_error_ago_s,omitempty"`
	// EnvelopeRadii counts the radii with a recorded upper-bound
	// envelope — the shard's degradation safety net.
	EnvelopeRadii int `json:"envelope_radii"`
}

// health snapshots the shard's status. The breaker is the one liveness
// signal: down when open; suspect when half-open, or closed with a
// failure streak; up otherwise.
func (sh *Shard) health() Health {
	sh.mu.Lock()
	lastErr, lastAt, envN := sh.lastErr, sh.lastErrAt, len(sh.envelope)
	sh.mu.Unlock()
	info := sh.backend.Info()
	br := sh.br.State()
	h := Health{
		ID:            sh.id,
		Counts:        info.Counts,
		State:         ProbeUp,
		Breaker:       br.String(),
		Addr:          info.Addr,
		Generation:    info.Generation,
		LastError:     lastErr,
		EnvelopeRadii: envN,
	}
	switch {
	case br == breaker.Open:
		h.State = ProbeDown
	case br == breaker.HalfOpen || sh.br.Failures() > 0:
		h.State = ProbeSuspect
	}
	if lastErr != "" {
		h.LastErrorAgoS = time.Since(lastAt).Seconds()
	}
	return h
}

// sortHealth orders a health slice by shard id (map-order callers).
func sortHealth(hs []Health) {
	sort.Slice(hs, func(a, b int) bool { return hs[a].ID < hs[b].ID })
}
