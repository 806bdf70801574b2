package core

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"mio/internal/bitmap"
)

// This file provides the analytical companions to the MIO query that
// the paper's motivating applications need once the answer is known:
// extracting O_i — the set of objects interacting with a given object
// (Example 2 extracts the sub-trajectories near the leader) — full
// score vectors for distribution analysis, and threshold sweeps that
// share one label store across queries.

// InteractingSet returns the ids of the objects interacting with
// object obj at threshold r (the set O_obj of Equation (1)), in
// increasing id order. It builds a BIGrid and runs the verification
// machinery for the single object, so it costs far less than a full
// query. A cancelled ctx returns ctx.Err().
func (e *Engine) InteractingSet(ctx context.Context, r float64, obj int) ([]int, error) {
	if obj < 0 || obj >= e.ds.N() {
		return nil, fmt.Errorf("core: object %d out of range [0, %d)", obj, e.ds.N())
	}
	q, err := e.mappedQuery(ctx, r)
	if err != nil {
		return nil, err
	}
	bOi := bitmap.NewScratch(q.n)
	mask := bitmap.NewScratch(q.n)
	ctr := ctrSet{}
	i := int(e.ord.pos[obj])
	tau, whole := q.exactScore(i, bOi, mask, &ctr)
	if !whole {
		return nil, ctx.Err()
	}
	q.record(i, tau)
	out := make([]int, 0, bOi.Cardinality()-1)
	bOi.ForEach(func(j int) bool {
		if j != i {
			out = append(out, int(e.ord.ext[j]))
		}
		return true
	})
	slices.Sort(out)
	return out, nil
}

// mappedQuery validates r and returns a query with its BIGrid built:
// the common start of the entry points that score objects directly,
// with no bounding phases.
func (e *Engine) mappedQuery(ctx context.Context, r float64) (*query, error) {
	if err := e.validate(r, 1); err != nil {
		return nil, err
	}
	q := newQuery(e, r, 1)
	q.ctx = ctx
	q.gridMapping()
	if q.cancelled() {
		return nil, ctx.Err()
	}
	return q, nil
}

// AllScores returns the exact score of every object at threshold r,
// indexed by object id.
// This is the full-scoring workload (no pruning pays off when every
// score is requested), useful for score-distribution analysis such as
// verifying the power-law shape of the Syn workload. A score the
// engine's memo settles is not walked again. The scoring loop checks
// ctx between objects.
func (e *Engine) AllScores(ctx context.Context, r float64) ([]int, error) {
	q, err := e.mappedQuery(ctx, r)
	if err != nil {
		return nil, err
	}
	scores := make([]int, q.n)
	for i, j := range e.ord.ext {
		if q.cancelled() {
			return nil, ctx.Err()
		}
		var known, whole bool
		if scores[j], known = q.recalled(i); known {
			continue
		}
		if scores[j], whole = q.exact(i); !whole {
			return nil, ctx.Err()
		}
	}
	return scores, nil
}

// SweepResult pairs a threshold with its query result.
type SweepResult struct {
	R      float64 `json:"r"`
	Result *Result `json:"result"`
}

// Sweep runs top-k queries for every threshold in rs, in order. With a
// label store configured this is the paper's headline workload
// (§I-B, §III-D): fine-grained thresholds share ⌈r⌉, so later queries
// reuse the labels collected by earlier ones. ctx is threaded through
// every per-threshold query, so a deadline bounds the whole sweep.
func (e *Engine) Sweep(ctx context.Context, rs []float64, k int) ([]SweepResult, error) {
	out := make([]SweepResult, 0, len(rs))
	for _, r := range rs {
		res, err := e.RunTopKContext(ctx, r, k, false)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, fmt.Errorf("core: sweep at r=%g: %w", r, err)
		}
		out = append(out, SweepResult{R: r, Result: res})
	}
	return out, nil
}

// ScoreHistogram buckets a score vector into at most buckets
// equal-width bins and returns the bin counts plus the bin width. It
// supports eyeballing the power-law shape of score distributions.
func ScoreHistogram(scores []int, buckets int) (counts []int, width int) {
	if len(scores) == 0 || buckets < 1 {
		return nil, 0
	}
	maxS := 0
	for _, s := range scores {
		if s > maxS {
			maxS = s
		}
	}
	width = maxS/buckets + 1
	counts = make([]int, (maxS/width)+1)
	for _, s := range scores {
		counts[s/width]++
	}
	return counts, width
}

// TopPercentile returns the smallest score greater than or equal to
// the given fraction (0..1] of all scores — e.g. 0.99 gives the 99th
// percentile score.
func TopPercentile(scores []int, frac float64) int {
	if len(scores) == 0 {
		return 0
	}
	cp := append([]int(nil), scores...)
	sort.Ints(cp)
	idx := int(frac*float64(len(cp))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}
