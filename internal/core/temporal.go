package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mio/internal/data"
)

// This file is the temporal extension of Appendix B: objects interact
// iff they have a point pair within distance r generated within δ time
// of each other. Time is cut into δ-wide buckets, floor(t/δ), and the
// bucket is the most significant component of every grid key
// (grid.Build), so a temporal query is the spatial pipeline on bucketed
// grids. Two points of one bucket are less than δ apart, so same-bucket
// small-grid cells give the lower bound as they stand. A point's
// temporal neighbours lie in its own bucket or the next one either
// side, so the large-grid neighbourhoods of upper bounding and
// verification span three buckets (halo 1), and only pairs across
// buckets take the time test (probePosting). δ = 0 is the special case
// the appendix calls out: one bucket per distinct generation time,
// consulted alone (halo 0).

// TemporalEngine processes spatio-temporal MIO queries over a dataset
// whose points carry generation times.
type TemporalEngine struct {
	e *Engine
	// maxAbsT is the largest |timestamp|; RunTopK holds δ against it the
	// way validate holds r against maxAbs.
	maxAbsT float64
}

// NewTemporalEngine returns an engine over ds, which must satisfy
// NewEngine and whose points must all carry a timestamp that is a
// number. It takes no label store: §III-D's labels are kept per ⌈r⌉,
// and under a time constraint what a point contributes to the bounds
// also depends on δ.
func NewTemporalEngine(ds *data.Dataset, opts Options) (*TemporalEngine, error) {
	if opts.Labels != nil {
		return nil, errors.New("core: the temporal engine takes no label store: labels are kept per ⌈r⌉, and under a time constraint what they record also depends on δ")
	}
	e, err := NewEngine(ds, opts)
	if err != nil {
		return nil, err
	}
	te := &TemporalEngine{e: e}
	for i := range ds.Objects {
		if !ds.Objects[i].Temporal() {
			return nil, fmt.Errorf("core: object %d has no timestamps", i)
		}
		for _, t := range ds.Objects[i].Times {
			if t != t {
				return nil, fmt.Errorf("core: object %d has a NaN timestamp", i)
			}
			if t = math.Abs(t); t > te.maxAbsT {
				te.maxAbsT = t
			}
		}
	}
	return te, nil
}

// Run processes a spatio-temporal MIO query.
func (te *TemporalEngine) Run(r, delta float64) (*Result, error) { return te.RunTopK(r, delta, 1) }

// RunTopK processes the top-k spatio-temporal variant. delta may be
// zero (points must share their generation time exactly). A refused
// (r, δ, k) is an ErrInvalidQuery.
func (te *TemporalEngine) RunTopK(r, delta float64, k int) (*Result, error) {
	if err := te.e.validate(r, k); err != nil {
		return nil, err
	}
	if !(delta >= 0) {
		return nil, fmt.Errorf("%w: temporal threshold must be non-negative, got %g", ErrInvalidQuery, delta)
	}
	q := newQuery(te.e, r, k)
	q.delta = delta
	if delta > 0 {
		// Bucket ids floor(t/δ) and their ±1 neighbours must stay inside
		// int32, as cell coordinates must (validate).
		if !(te.maxAbsT/delta < math.MaxInt32-1) {
			return nil, fmt.Errorf("%w: δ=%g is too small for timestamps up to ±%g: bucket ids would overflow int32", ErrInvalidQuery, delta, te.maxAbsT)
		}
		q.halo = 1
	}
	q.bucket = te.buckets(delta)
	return q.run()
}

// buckets returns the time bucket of every point number: floor(t/δ),
// or for δ = 0 the rank of t among the distinct timestamps.
func (te *TemporalEngine) buckets(delta float64) []int32 {
	var times []float64
	for i := range te.e.ds.Objects {
		times = append(times, te.e.ds.Objects[i].Times...)
	}
	var distinct []float64
	if delta == 0 {
		distinct = slices.Clone(times)
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
	}
	bucket := make([]int32, len(times))
	for g, t := range times {
		if delta > 0 {
			bucket[g] = int32(math.Floor(t / delta))
		} else {
			rank, _ := slices.BinarySearch(distinct, t)
			bucket[g] = int32(rank)
		}
	}
	return bucket
}
