package shard

import (
	"context"
	"errors"

	"mio/internal/core"
)

// DefaultMaxR is the replica horizon selected when a Config (or a
// remote worker's config) leaves MaxR unset; Horizon applies it.
const DefaultMaxR = 10

// Horizon resolves a configured replica horizon: maxR, or DefaultMaxR
// when unset (≤ 0). Coordinator and workers must agree on the effective
// horizon — it is folded into the dataset generation stamp — so every
// config resolves it here.
func Horizon(maxR float64) float64 {
	if maxR <= 0 {
		return DefaultMaxR
	}
	return maxR
}

// Transport-level failure sentinels. The coordinator inspects attempt
// errors with errors.Is to keep per-class counters; the remote
// transport (internal/shard/remote) wraps them around the concrete
// network/validation failures.
var (
	// ErrStaleGeneration marks a response rejected by the generation
	// guard: the worker answered, but for a different dataset
	// generation than the coordinator is serving — a restarted or
	// mis-deployed worker. Merging such an answer would silently mix
	// datasets, so the attempt fails and is charged to the shard's
	// breaker like any other.
	ErrStaleGeneration = errors.New("shard: response from a different dataset generation")
	// ErrBadResponse marks a response rejected by strict validation
	// before it could touch the merge: corrupt or truncated envelope,
	// malformed JSON, out-of-range ids or scores, broken canonical
	// order, or an oversized body.
	ErrBadResponse = errors.New("shard: invalid shard response")
	// ErrNoSlot marks an engine-pool acquire that timed out; the
	// coordinator does not charge it to the shard's breaker (the shard
	// is busy, not broken) and a remote worker answers it with 503.
	ErrNoSlot = errors.New("shard: engine pool exhausted")
)

// Shard liveness states reported in Health.State and /healthz. Every
// shard, in-process or remote, derives its state from its breaker
// alone (Shard.health).
const (
	// ProbeUp: the breaker is closed with no failure streak (no attempt
	// yet, or the last one succeeded).
	ProbeUp = "up"
	// ProbeSuspect: the breaker is closed with a failure streak below
	// DefaultBreakThreshold, or half-open with its probe attempt due or
	// in flight.
	ProbeSuspect = "suspect"
	// ProbeDown: the breaker is open; attempts are refused until its
	// cooldown admits a probe attempt.
	ProbeDown = "down"
)

// Backend is one shard's query transport. The in-process engine pool
// (local.go) and the remote HTTP worker client
// (internal/shard/remote.Client) both implement it; the coordinator's
// retry/hedge/breaker/envelope machinery is transport-agnostic.
//
// Every object id crossing this interface is GLOBAL: backends own the
// local↔global mapping so the merge algebra never sees shard-local
// numbering.
type Backend interface {
	// Bound runs the bound phase (label input through upper-bounding,
	// restricted to the shard's primaries) under ctx and returns the
	// paused bounds. Implementations convert panics to errors, which
	// the retry loop handles like any other failed attempt.
	Bound(ctx context.Context, r float64, k int) (Bounds, error)
	// Info reports the backend's identity.
	Info() BackendInfo
	// Close releases transport resources (a remote client's idle
	// connections). It must be idempotent; in-flight calls may still
	// complete afterwards.
	Close()
}

// Bounds is a shard's paused bound-phase product. Exactly one of
// Complete or Release must be called, once: Complete finishes
// verification against the merged floor, Release abandons the bounds
// (shard pruned, query cancelled) and returns the resources.
type Bounds interface {
	// TopLBs returns the k highest certified lower bounds over the
	// shard's primaries, global ids, canonical order.
	TopLBs() []core.Scored
	// MaxUB returns the highest certified upper bound over the shard's
	// primaries.
	MaxUB() int
	// Stats exposes the bound-phase work done so far.
	Stats() core.PhaseStats
	// Complete resumes verification against floor and returns the
	// shard's exact top-k (global ids).
	Complete(ctx context.Context, floor int) (*core.Result, error)
	// Release abandons the paused query.
	Release()
}

// Counts describes what an in-process shard holds of the dataset.
type Counts struct {
	Objects   int `json:"objects"`
	Primaries int `json:"primaries"`
	Replicas  int `json:"replicas"`
}

// BackendInfo is a backend's health-reporting snapshot.
type BackendInfo struct {
	// Counts is the shard's slice of the dataset; nil for a remote
	// worker, which reports its own on /shardz.
	Counts *Counts
	// Addr is the worker address ("" for in-process backends).
	Addr string
	// Generation is the dataset generation the backend expects of its
	// worker (0 for in-process backends — the coordinator shares the
	// process, so generations cannot diverge).
	Generation uint64
}
