package core

import (
	"context"
	"fmt"
)

// This file implements the split-phase entry point used by the sharded
// scatter–gather coordinator (internal/shard): Bound runs the pipeline
// through upper-bounding and pauses, exposing the certified per-object
// [τ^low, τ^upp] vectors; Complete resumes with a verification
// threshold floor merged in from the other shards, so candidates whose
// upper bound cannot reach the global top-k are never verified.
//
// The restrict mask threads the border-replica discipline through the
// pipeline: a shard's dataset holds its primary objects plus halo
// replicas of neighbouring shards' objects (trimmed to the points its
// primaries can reach). A replica's points are indexed and probed, so
// it contributes to its neighbours' scores, but it is never bounded —
// Lemma 1 and Lemma 2 run for allowed objects alone — and only
// primaries may be reported, so every object is answered by exactly
// one shard and cross-shard interactions are scored exactly once.

// BoundSet is a paused query whose label-input, grid-mapping,
// lower-bounding and upper-bounding phases have completed. It holds
// all of its query's state, so the engine that produced it may run
// other queries meanwhile; it must be finished with Complete or
// dropped, and Complete is called at most once.
type BoundSet struct {
	q *query
}

// Bound runs the pipeline through upper-bounding and pauses. allowed,
// when non-nil, must have one entry per object, indexed by the caller's
// id; only objects with a set entry may appear in TopLBs or the
// completed answer. k is clamped to the number of allowed objects.
// Cancellation returns ctx.Err() — the caller owns degradation policy
// (it still holds the bounds of every shard that did answer).
func (e *Engine) Bound(ctx context.Context, r float64, k int, allowed []bool) (*BoundSet, error) {
	if err := e.validate(r, k); err != nil {
		return nil, err
	}
	n := e.ds.N()
	if allowed != nil && len(allowed) != n {
		return nil, fmt.Errorf("core: restrict mask has %d entries for %d objects", len(allowed), n)
	}
	k = min(k, countAllowed(allowed, n))
	if k == 0 {
		return nil, fmt.Errorf("core: restrict mask allows no objects")
	}
	q := newQuery(e, r, k)
	q.ctx = ctx
	if allowed != nil {
		q.restrict = make([]bool, n)
		for i, j := range e.ord.ext {
			q.restrict[i] = allowed[j]
		}
	}
	// degradeOK is off, so an expiry comes back as ctx.Err(), never as a
	// degraded Result.
	if _, err := q.bound(); err != nil {
		return nil, err
	}
	return &BoundSet{q: q}, nil
}

// countAllowed returns the number of reportable objects.
func countAllowed(allowed []bool, n int) int {
	if allowed == nil {
		return n
	}
	c := 0
	for _, a := range allowed {
		if a {
			c++
		}
	}
	return c
}

// TopLBs returns the k highest certified lower bounds among allowed
// objects in canonical order (bound descending, object ascending).
// Each entry's true score is ≥ its Score (Lemma 1), which is what
// makes the merged k-th highest a sound global verification floor.
func (b *BoundSet) TopLBs() []Scored {
	q := b.q
	top := make([]Scored, 0, q.k)
	for i := 0; i < q.n; i++ {
		if q.allowed(i) {
			top = insertTopK(top, Scored{Obj: int(q.e.ord.ext[i]), Score: int(q.tauLow[i])}, q.k)
		}
	}
	return top
}

// MaxUB returns the highest certified upper bound among allowed
// objects: no object this shard may report can score above it
// (Lemma 2). The coordinator prunes the whole shard when MaxUB falls
// below the merged floor.
func (b *BoundSet) MaxUB() int { return b.q.maxUB() }

// maxUB returns the highest τ^upp among allowed objects.
func (q *query) maxUB() int {
	best := 0
	for i := 0; i < q.n; i++ {
		if q.allowed(i) && int(q.tauUpp[i]) > best {
			best = int(q.tauUpp[i])
		}
	}
	return best
}

// Stats exposes the bound-phase work done so far. The coordinator
// charges it to the query even when the shard is pruned before
// verification — the grid was still built and the bounds still
// computed.
func (b *BoundSet) Stats() PhaseStats { return b.q.stats }

// Complete resumes the paused query under ctx (query.complete): the
// result is finalised exactly as a solo run would — collected labels
// are published as a side effect (query.publish). Raising the
// threshold to a sound global floor never changes the answer for
// objects that belong in the global top-k, it only skips verifying
// locals that provably do not.
func (b *BoundSet) Complete(ctx context.Context, floor int) (*Result, error) {
	b.q.ctx = ctx
	return b.q.publish(b.q.complete(floor))
}
