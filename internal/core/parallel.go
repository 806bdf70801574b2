package core

import (
	"math/bits"
	"slices"

	"mio/internal/bitmap"
	"mio/internal/core/labelstore"
	"mio/internal/parallel"
)

// This file implements §IV — parallel MIO query processing. Every phase
// follows the paper's local-bitset design: each worker owns private
// scratch bitsets and counters, so no synchronization happens inside
// the loops; results are merged after each barrier. (PARALLEL-GRID-
// MAPPING is grid.Build with workers > 1; see mapGrids.)

// lowerBoundHashP implements PARALLEL-LOWER-BOUNDING(O, r) by "dividing
// P_i": each object's key list is split across cores; local bitsets
// avoid synchronization on b(o_i) and are merged per object. (The other
// §IV strategy, "dividing O", is eachObject weighted by key-list size.)
func (q *query) lowerBoundHashP() {
	t := q.e.opts.workers()
	locals := make([]*bitmap.Scratch, t)
	for w := range locals {
		locals[w] = bitmap.NewScratch(q.n)
	}
	for i := 0; i < q.n; i++ {
		keys := q.idx.keyLists[i]
		if len(keys) == 0 || !q.allowed(i) {
			continue // τ^low stays 0 (see lowerBounding)
		}
		parallel.Run(t, func(w int) {
			locals[w].Reset()
			for j := w; j < len(keys); j += t {
				locals[w].OrIDs(q.idx.small.CellObjs(int(keys[j])))
			}
		})
		for w := 1; w < t; w++ {
			locals[0].OrScratch(locals[w])
		}
		q.tauLow[i] = int32(locals[0].Cardinality() - 1)
	}
}

// upperBoundGreedyP implements PARALLEL-UPPER-BOUNDING with the
// cost-based point-group partition (UB-greedy-p). Cost model of Eq. (3):
// a group whose cell lacks b^adj costs a 27-cell union; one whose cell
// has it costs a single OR. The labeling term |P_{i,K}| is omitted when
// labels are in use. Objects the count-bound cascade settles
// (computeUpperBounds) take no partition. (The object-partition
// strawman UB-greedy-d, kept for Fig. 8, is eachObject weighted by
// |P_i|.)
func (q *query) upperBoundGreedyP() {
	t := q.e.opts.workers()
	ctrs := make([]ctrSet, t)
	locals := make([]*bitmap.Scratch, t)
	for w := range locals {
		locals[w] = bitmap.NewScratch(q.n)
	}
	var replay *bitmap.Scratch
	if q.newLabels != nil {
		replay = bitmap.NewScratch(q.n)
	}
	costs := make([]int, 0, 64)
	active := make([]int, 0, 64)
	for i := 0; i < q.n; i++ {
		if q.settled(i, &ctrs[0]) {
			continue
		}
		costs = costs[:0]
		active = active[:0]
		for gi, g := range q.idx.groups[i] {
			if q.labels != nil && !q.groupActiveUpper(i, g) {
				continue
			}
			cost := 1 // Cost(b): one bitwise OR
			if q.idx.large.Adj(int(g.cell)) == nil {
				cost = 27
			}
			if q.labels == nil {
				cost += len(q.idx.large.PointIdx(int(g.post))) // per-point labeling cost
			}
			active = append(active, gi)
			costs = append(costs, cost)
		}
		if len(active) == 0 {
			q.store(i, 0)
			continue
		}
		buckets := parallel.Greedy(costs, t)
		parallel.Run(t, func(w int) {
			locals[w].Reset()
			for _, ai := range buckets[w] {
				// label2=false: each worker's bucket order differs
				// from the serial group order, so the prefix-dependent
				// Labeling-2 decision is replayed serially below.
				q.orGroupAdj(i, q.idx.groups[i][active[ai]], locals[w], &ctrs[w], false)
			}
		})
		for w := 1; w < t; w++ {
			locals[0].OrScratch(locals[w])
		}
		q.store(i, int32(max(locals[0].Cardinality()-1, 0)))
		if replay != nil {
			q.labelUpperReplay(i, replay)
		}
	}
	q.addCounters(ctrs)
}

// parallelExactScore implements PARALLEL-VERIFICATION's per-candidate
// work with an object partition: worker w owns the candidate objects
// {j : j mod t == w}. Every worker runs the serial group walk — the
// same groups in the same order — with its masks intersected with its
// share, so it probes only the objects it owns.
//
// The partition is what makes tuning answer-invariant (DESIGN.md §16):
// whether object j is probed for a group depends only on j's own
// found-state (a pure function of the group order, the grid, r, and
// the seed bitset), never on what other workers have found. Summing
// the per-worker counters therefore reproduces the serial
// DistanceComps bit for bit at every worker count — unlike a
// point-split, where each worker's private b(o_i) re-probes objects
// the others already resolved and the count grows with t.
func (q *query) parallelExactScore(i int) (tau int, whole bool) {
	if q.gather() == nil {
		return 0, false
	}
	t := q.e.opts.workers()
	if q.vBOi == nil {
		q.vBOi = make([]*bitmap.Scratch, t)
		q.vMask = make([]*bitmap.Scratch, t)
		q.vShare = make([]*bitmap.Scratch, t)
		for w := 0; w < t; w++ {
			q.vBOi[w] = bitmap.NewScratch(q.n)
			q.vMask[w] = bitmap.NewScratch(q.n)
			q.vShare[w] = bitmap.NewScratch(q.n)
			for j := w; j < q.n; j += t {
				q.vShare[w].Set(j)
			}
		}
	}

	// When collecting labels, each worker records per-point share-empty
	// bits instead of clearing label bits directly (see scoreWalk).
	var empty [][]uint64
	if q.newLabels != nil {
		empty = make([][]uint64, t)
		nw := (len(q.e.ds.Objects[i].Pts) + 63) / 64
		for w := range empty {
			empty[w] = make([]uint64, nw)
		}
	}

	ctrs := make([]ctrSet, t)
	stopped := make([]bool, t)
	parallel.Run(t, func(w int) {
		sw := scoreWalk{q: q, i: i, bOi: q.vBOi[w], mask: q.vMask[w], share: q.vShare[w]}
		if empty != nil {
			sw.emptyAt = empty[w]
		}
		sw.run()
		ctrs[w], stopped[w] = sw.ctr, sw.stopped
	})
	for w := 1; w < t; w++ {
		q.vBOi[0].OrScratch(q.vBOi[w])
	}
	if empty != nil {
		// A point is skippable for future ⌈r⌉ runs iff every worker's
		// share of its group's mask emptied — the conjunction is exactly
		// the serial full-mask condition, so collected label stores are
		// identical at every worker count. A worker that broke early on
		// cancellation leaves its unvisited bits zero, which can only
		// suppress clears, never fabricate one.
		for wi := range empty[0] {
			m := empty[0][wi]
			for w := 1; w < t; w++ {
				m &= empty[w][wi]
			}
			for m != 0 {
				b := bits.TrailingZeros64(m)
				q.newLabels.ClearBit(i, wi<<6+b, labelstore.BitVerify)
				m &= m - 1
			}
		}
	}
	q.addCounters(ctrs)
	return q.vBOi[0].Cardinality() - 1, !slices.Contains(stopped, true)
}
