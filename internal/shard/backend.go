package shard

import (
	"context"
	"errors"
	"time"

	"mio/internal/core"
)

// DefaultMaxR is the replica horizon selected when a Config (or a
// remote worker's config) leaves MaxR unset. Coordinator and workers
// must agree on the effective horizon — it is folded into the dataset
// generation stamp — so the default lives here, in one place.
const DefaultMaxR = 10

// Transport-level failure sentinels. The coordinator inspects attempt
// errors with errors.Is to keep per-class counters; the remote
// transport (internal/shard/remote) wraps them around the concrete
// network/validation failures.
var (
	// ErrStaleGeneration marks a response rejected by the generation
	// guard: the worker answered, but for a different dataset
	// generation than the coordinator is serving — a restarted or
	// mis-deployed worker. Merging such an answer would silently mix
	// datasets, so the shard is treated as down instead.
	ErrStaleGeneration = errors.New("shard: response from a different dataset generation")
	// ErrBadResponse marks a response rejected by strict validation
	// before it could touch the merge: corrupt or truncated envelope,
	// malformed JSON, out-of-range ids or scores, broken canonical
	// order, or an oversized body.
	ErrBadResponse = errors.New("shard: invalid shard response")
	// ErrUnreachable marks an attempt refused because the health prober
	// currently considers the worker down; no network round trip is
	// paid.
	ErrUnreachable = errors.New("shard: worker down")
	// ErrNoSlot marks an engine-pool acquire that timed out; the
	// coordinator does not charge it to the shard's breaker (the shard
	// is busy, not broken) and a remote worker answers it with 503.
	ErrNoSlot = errors.New("shard: engine pool exhausted")
)

// Shard probe states reported in BackendInfo.State and /healthz.
const (
	// ProbeUp: the last health probe (or query) succeeded.
	ProbeUp = "up"
	// ProbeSuspect: a recent probe failed but the down threshold has
	// not been reached (or the worker has never been probed yet).
	ProbeSuspect = "suspect"
	// ProbeDown: consecutive probe failures reached the threshold, or
	// the worker answered with a stale generation; attempts fast-fail
	// until a probe succeeds again.
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
	// Info reports the backend's identity and, for remote backends, the
	// prober's last-known view of the worker.
	Info() BackendInfo
	// Close releases background resources (probers). It must be
	// idempotent; in-flight calls may still complete afterwards.
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

// BackendInfo is a backend's health-reporting snapshot.
type BackendInfo struct {
	// Objects/Primaries/Replicas describe the shard's slice of the
	// dataset. For remote backends they reflect the last successful
	// /shardz probe and are zero until one lands.
	Objects   int
	Primaries int
	Replicas  int
	// Addr is the worker address ("" for in-process backends).
	Addr string
	// Generation is the dataset generation the backend expects of its
	// worker (0 for in-process backends — the coordinator shares the
	// process, so generations cannot diverge).
	Generation uint64
	// State is the prober's view (ProbeUp/ProbeSuspect/ProbeDown), or
	// "" for in-process backends, whose liveness the breaker tracks.
	State string
	// LastProbeErr is the most recent probe failure ("" when healthy);
	// LastProbeAgo is how long ago the last probe finished (negative
	// when never probed).
	LastProbeErr string
	LastProbeAgo time.Duration
}
