package mio

import (
	"context"

	"mio/internal/core"
)

// SweepResult pairs a threshold with the query result it produced.
type SweepResult = core.SweepResult

// InteractingSet returns the ids of the objects interacting with obj
// at threshold r — the set an analyst extracts once the MIO answer is
// known (e.g. the sub-trajectories following a leader).
func (e *Engine) InteractingSet(r float64, obj int) ([]int, error) {
	return e.inner.InteractingSet(context.Background(), r, obj)
}

// AllScores returns every object's exact interaction count at
// threshold r, for score-distribution analysis.
func (e *Engine) AllScores(r float64) ([]int, error) {
	return e.inner.AllScores(context.Background(), r)
}

// Sweep runs top-k queries over a sequence of thresholds. With
// WithLabels (or WithDiskLabels) configured, queries sharing ⌈r⌉ reuse
// the labels collected by the first — the fine-grained analysis
// workload the paper optimises for.
func (e *Engine) Sweep(rs []float64, k int) ([]SweepResult, error) {
	return e.inner.Sweep(context.Background(), rs, k)
}

// InteractingSetContext is InteractingSet with cancellation.
func (e *Engine) InteractingSetContext(ctx context.Context, r float64, obj int) ([]int, error) {
	return e.inner.InteractingSet(ctx, r, obj)
}

// AllScoresContext is AllScores with cancellation.
func (e *Engine) AllScoresContext(ctx context.Context, r float64) ([]int, error) {
	return e.inner.AllScores(ctx, r)
}

// SweepContext is Sweep with cancellation: ctx is threaded through
// every per-threshold query, so one deadline bounds the whole sweep.
func (e *Engine) SweepContext(ctx context.Context, rs []float64, k int) ([]SweepResult, error) {
	return e.inner.Sweep(ctx, rs, k)
}

// ScoreHistogram buckets a score vector into at most the given number
// of equal-width bins, returning bin counts and the bin width.
func ScoreHistogram(scores []int, buckets int) (counts []int, width int) {
	return core.ScoreHistogram(scores, buckets)
}

// TopPercentile returns the score at the given fraction (0..1] of the
// score distribution.
func TopPercentile(scores []int, frac float64) int {
	return core.TopPercentile(scores, frac)
}
