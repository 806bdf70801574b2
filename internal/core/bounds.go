package core

import (
	"sort"
	"sync/atomic"

	"mio/internal/bitmap"
	"mio/internal/core/labelstore"
	"mio/internal/grid"
	"mio/internal/parallel"
)

// ctrSet accumulates work counters. Each worker owns one; they are
// summed into PhaseStats so hot loops never touch shared state.
type ctrSet struct {
	adjComputed int
	distComps   int
}

func (q *query) addCounters(cs []ctrSet) {
	for _, c := range cs {
		q.stats.AdjComputed += c.adjComputed
		q.stats.DistanceComps += c.distComps
	}
}

// lowerBounding implements LOWER-BOUNDING(O, r) (Algorithm 4) and its
// WITH-LABEL variant. It fills q.tauLow; the pruning threshold is its
// k-th highest entry (kthHighest, §III-C). An object the restrict mask
// disallows keeps τ^low = 0: every reader of τ^low (kthHighest, TopLBs,
// degraded) skips it, so Lemma 1 is not run for it.
func (q *query) lowerBounding() {
	q.tauLow = make([]int32, q.n)
	if q.e.opts.workers() > 1 && q.e.opts.LB == LBHashP {
		q.lowerBoundHashP()
		q.lbDone = true
	} else {
		// A partial tauLow (zeros past the break) is still a sound
		// per-object lower bound, but only a complete pass certifies
		// the degraded answer's "best candidate" choice.
		q.lbDone = q.eachObject(
			func(i int) int {
				if !q.allowed(i) {
					return 0
				}
				return len(q.idx.keyLists[i])
			},
			func(i int, scratch *bitmap.Scratch, _ *ctrSet) {
				if q.allowed(i) {
					q.lowerBoundObject(i, scratch)
				}
			})
	}
}

// lowerBoundObject computes τ^low(o_i) = |⋁_{K∈o_i.L} b(c_K)| − 1
// (Lemma 1) into q.tauLow[i] using the provided scratch bitset.
func (q *query) lowerBoundObject(i int, scratch *bitmap.Scratch) {
	q.lemma1(i, scratch)
	q.tauLow[i] = int32(scratch.Cardinality() - 1)
}

// kthHighest returns the k-th highest value in vals (k = q.k) among
// the objects q.restrict allows, the top-k pruning threshold.
func (q *query) kthHighest(vals []int32) int {
	if q.k == 1 && q.restrict == nil {
		best := int32(0)
		for _, v := range vals {
			if v > best {
				best = v
			}
		}
		return int(best)
	}
	cp := make([]int32, 0, len(vals))
	for i, v := range vals {
		if q.allowed(i) {
			cp = append(cp, v)
		}
	}
	sort.Slice(cp, func(a, b int) bool { return cp[a] > cp[b] })
	if q.k-1 < len(cp) {
		return int(cp[q.k-1])
	}
	return 0
}

// allowed reports whether object i may appear in the answer.
func (q *query) allowed(i int) bool {
	return q.restrict == nil || q.restrict[i]
}

// candidate is an O_cand entry: an object surviving Theorem 2 pruning,
// with its upper bound.
type candidate struct {
	obj    int32
	tauUpp int32
}

// computeUpperBounds is the bound-computing half of UPPER-BOUNDING(O,
// r, τ^low_max) (Algorithm 5) and its WITH-LABEL variant;
// assembleCandidates is the other. It fills q.tauUpp as a cascade in
// front of Lemma 2: every object first gets its count bound B_i
// (countBounds), and only the survivors (survives), whose B_i reaches
// the threshold, get Lemma 2's bound. An object below the threshold is
// never a candidate, never the shard's MaxUB (the allowed object with
// the highest τ^low survives with τ^upp ≥ τ^low ≥ threshold) and never
// degraded's best, so answers and candidates are those of a full pass.
//
// Both bounds are functions of the large grid alone, so they live in a
// ubEntry that queries on the same grid share: the engine's cached entry
// for its ⌈r⌉ on a label-free spatial query, which grid mapping looked
// up (ubcache.go, mapGrids), or else one of its own. A survivor whose
// τ^upp the entry holds is not computed again; one it lacks is computed
// on q's grid and stored, the grid built first if grid mapping left it
// to the first read (largeGrid). A build cut short leaves the pass
// undone. An entry of its own is published only from a pass that
// completed on a complete grid, and with it the grid, as the entry's
// warm grid if it has none.
func (q *query) computeUpperBounds() {
	if q.ub == nil {
		q.ub = newUBEntry(grid.LargeWidth(q.r), q.idx)
	}
	q.tauUpp = make([]int32, q.n)
	if q.idx.large == nil && q.lacksBound() && q.largeGrid() == nil {
		return
	}
	if q.e.opts.workers() > 1 && q.e.opts.UB != UBGreedyD {
		q.upperBoundGreedyP()
		q.ubDone = true
	} else {
		// Unlike tauLow, a partial tauUpp is NOT sound (zeros are not
		// upper bounds), so the degraded path must know it is unusable.
		q.ubDone = q.eachObject(q.pointCount, q.boundObject)
	}
	if cache := q.ubCache(); cache != nil && q.ubDone && !q.gmBroke {
		var lean *grid.LargeGrid
		if q.idx.large != nil {
			lean = q.idx.large.Lean()
		}
		cache.put(q.ub, lean)
	}
}

// lacksBound reports whether some survivor of the count bound lacks
// its τ^upp in the entry, so that upper bounding runs Lemma 2.
func (q *query) lacksBound() bool {
	for i := 0; i < q.n; i++ {
		if q.survives(i) && q.ub.tau[i].Load() < 0 {
			return true
		}
	}
	return false
}

// countBounds returns every object's count bound B_i = min(n − 1,
// Σ_g (S(g.cell) − 1)) over its point groups g, with S the grid's
// NeighborhoodPostings. b^adj(c) holds at most S(c) objects, o_i among
// them, so the union Lemma 2 counts holds at most 1 + Σ_g (S − 1):
// B_i ≥ τ^upp(o_i), and no bitmap is read. On a WITH-LABEL run the sum
// takes every group, active or not, which only loosens it.
func countBounds(idx *bigrid) []int32 {
	s := idx.large.NeighborhoodPostings()
	n := len(idx.groups)
	b := make([]int32, n)
	for i, gs := range idx.groups {
		sum := 0
		for _, g := range gs {
			sum += int(s[g.cell]) - 1
		}
		b[i] = int32(min(sum, n-1))
	}
	return b
}

// survives reports whether object i needs Lemma 2's bound: it is
// allowed and its count bound reaches the threshold. A query that
// collects labels needs every object's, so Labeling-1 and -2 see every
// cell and object of the grid.
func (q *query) survives(i int) bool {
	return q.newLabels != nil || q.allowed(i) && int(q.ub.b[i]) >= q.threshold
}

// boundObject sets q.tauUpp[i], running Lemma 2 when the cascade
// needs it (settled).
func (q *query) boundObject(i int, scratch *bitmap.Scratch, ctr *ctrSet) {
	if !q.settled(i, ctr) {
		q.store(i, q.upperBoundObject(i, scratch, ctr))
	}
}

// settled sets q.tauUpp[i] to what the cascade knows without Lemma 2 —
// B_i for an object that does not survive, the entry's τ^upp for a
// survivor it holds — and reports whether that is final. A survivor the
// entry lacks needs Lemma 2, and store.
func (q *query) settled(i int, ctr *ctrSet) bool {
	q.tauUpp[i] = q.ub.b[i]
	if !q.survives(i) {
		return true
	}
	v := q.ub.tau[i].Load()
	if v < 0 {
		return false
	}
	q.tauUpp[i] = v
	q.markRead(i, ctr)
	return true
}

// store sets τ^upp(o_i) = v in q.tauUpp and in the entry.
func (q *query) store(i int, v int32) {
	q.tauUpp[i] = v
	q.ub.tau[i].Store(v)
}

// markRead charges the cells of o_i's (active) groups to the read-set,
// the cells upperBoundObject would read: a survivor costs AdjComputed
// the same whether its bound was computed or found in the entry.
func (q *query) markRead(i int, ctr *ctrSet) {
	for _, g := range q.idx.groups[i] {
		if (q.labels == nil || q.groupActiveUpper(i, g)) && q.read.first(int(g.cell)) {
			ctr.adjComputed++
		}
	}
}

// ubCache returns the engine's τ^upp cache, or nil when the query must
// bypass it: labels (used or collected) filter the large grid, and a
// temporal query's grid depends on δ's bucketing.
func (q *query) ubCache() *ubCache {
	if q.labels != nil || q.newLabels != nil || q.bucket != nil {
		return nil
	}
	return q.e.ub
}

// readSet holds one bit per large cell: whether a query has read that
// cell's b^adj. AdjComputed is the number of set bits, the distinct
// cells the query read, which on a private grid is the number of b^adj
// it builds. Counting reads rather than builds makes the counter the
// same wherever b^adj came from: a grid another query built on, or an
// entry that held the survivor's τ^upp (markRead).
type readSet []atomic.Uint32

func newReadSet(cells int) readSet { return make(readSet, (cells+31)/32) }

// first marks cell c read and reports whether this is the first read.
// Parallel workers share the set: the word is loaded before any atomic
// write, so a re-read, nearly every read, costs one load.
func (s readSet) first(c int) bool {
	w, bit := &s[c>>5], uint32(1)<<(c&31)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// readAdj returns b^adj(c), building and memoising it on first need,
// and charges ctr.adjComputed on the query's first read of c. fresh
// reports that this call built it.
func (q *query) readAdj(c int, ctr *ctrSet) (adj *bitmap.Compressed, fresh bool) {
	adj, fresh = q.idx.large.ComputeAdj(c)
	if q.read.first(c) {
		ctr.adjComputed++
	}
	return adj, fresh
}

// eachObject runs one(i, scratch, ctr) for every object, the loop every
// bounding pass is. On one core it goes in index order and polls for
// cancellation; complete is false when that cut the sweep short. With
// workers configured it is §IV's "dividing O": the objects are
// partitioned greedily by weight, every worker owns a scratch bitset
// and a counter set, and there is no early-out. The counters are summed
// into q.stats.
func (q *query) eachObject(weight func(i int) int, one func(i int, scratch *bitmap.Scratch, ctr *ctrSet)) (complete bool) {
	t := q.e.opts.workers()
	ctrs := make([]ctrSet, t)
	complete = true
	if t == 1 {
		scratch := bitmap.NewScratch(q.n)
		for i := 0; i < q.n; i++ {
			if i&1023 == 0 && q.cancelled() {
				complete = false
				break
			}
			one(i, scratch, &ctrs[0])
		}
	} else {
		weights := make([]int, q.n)
		for i := range weights {
			weights[i] = weight(i)
		}
		buckets := parallel.Greedy(weights, t)
		parallel.Run(t, func(w int) {
			scratch := bitmap.NewScratch(q.n)
			for _, i := range buckets[w] {
				one(i, scratch, &ctrs[w])
			}
		})
	}
	q.addCounters(ctrs)
	return complete
}

// pointCount is |P_i|, eachObject's weight where a pass walks every
// point of an object.
func (q *query) pointCount(i int) int { return len(q.e.ds.Objects[i].Pts) }

// assembleCandidates builds O_cand from the bound vectors: every
// object with τ^upp ≥ threshold, sorted by descending upper bound
// with the external object id breaking ties so the order — and with it
// the best-first verification sequence — is deterministic and the
// caller's numbering's.
func (q *query) assembleCandidates(threshold int) []candidate {
	cand := make([]candidate, 0, q.n/4+1)
	for i := 0; i < q.n; i++ {
		if int(q.tauUpp[i]) >= threshold && q.allowed(i) {
			cand = append(cand, candidate{obj: int32(i), tauUpp: q.tauUpp[i]})
		}
	}
	sort.Slice(cand, func(a, b int) bool {
		if cand[a].tauUpp != cand[b].tauUpp {
			return cand[a].tauUpp > cand[b].tauUpp
		}
		return q.e.ord.ext[cand[a].obj] < q.e.ord.ext[cand[b].obj]
	})
	return cand
}

// upperBoundObject returns τ^upp(o_i) (Lemma 2), computing b^adj cells
// on demand and emitting Labeling-1/-2 labels when collecting.
func (q *query) upperBoundObject(i int, scratch *bitmap.Scratch, ctr *ctrSet) int32 {
	scratch.Reset()
	for _, g := range q.idx.groups[i] {
		if q.labels != nil && !q.groupActiveUpper(i, g) {
			continue
		}
		q.orGroupAdj(i, g, scratch, ctr, true)
	}
	return int32(max(scratch.Cardinality()-1, 0))
}

// orGroupAdj ORs b^adj of the group's cell into scratch, materialising
// the adjacency bitset if needed, and performs Labeling-1/-2. label2
// gates the Labeling-2 clears: the decision is prefix-dependent (a
// group contributes iff its adj has a bit outside the union of the
// groups OR-ed before it), so callers whose group order differs from
// the serial scan — the cost-partitioned UBGreedyP workers — pass
// false and replay the decision afterwards (labelUpperReplay), keeping
// collected label stores identical at every knob assignment.
// Labeling-1 stays here: it fires on the one fresh computation of a
// cell and clears that cell's own points, which is order-independent.
func (q *query) orGroupAdj(i int, g pointGroup, scratch *bitmap.Scratch, ctr *ctrSet, label2 bool) {
	large := q.idx.large
	adj, fresh := q.readAdj(int(g.cell), ctr)
	if fresh {
		// Labeling-1 (Observation 1): a cell whose adjacency bitset
		// holds a single object interacts with nobody; every point
		// mapped into it can be pruned from all future queries with the
		// same ⌈r⌉ (Lemma 3).
		if q.newLabels != nil && adj.Cardinality() == 1 {
			for p := int(large.CellOff[g.cell]); p < int(large.CellOff[g.cell+1]); p++ {
				for _, pt := range large.PointIdx(p) {
					q.newLabels.ClearBit(int(large.Objs[p]), int(pt), labelstore.BitMapped)
				}
			}
		}
	}
	prev := scratch.Cardinality()
	scratch.OrCompressed(adj)
	if label2 && q.newLabels != nil {
		// Labeling-2 (Observation 2): points whose OR left b(o_i)
		// unchanged are skippable in future upper-bounding. When the OR
		// did contribute, the group's first point is the contributor
		// and keeps its label.
		pts := large.PointIdx(int(g.post))
		if scratch.Cardinality() != prev {
			pts = pts[1:]
		}
		for _, pt := range pts {
			q.newLabels.ClearBit(i, int(pt), labelstore.BitUpper)
		}
	}
}

// labelUpperReplay re-walks object i's groups in serial order, redoing
// only the Labeling-2 contribution decision. Every adj it touches was
// memoised by the parallel OR pass that ran just before, so the replay
// costs bitmap ORs alone and leaves the work counters untouched.
func (q *query) labelUpperReplay(i int, scratch *bitmap.Scratch) {
	scratch.Reset()
	for _, g := range q.idx.groups[i] {
		adj, _ := q.idx.large.ComputeAdj(int(g.cell))
		prev := scratch.Cardinality()
		scratch.OrCompressed(adj) //lint:ignore scratch accumulation across one object's groups is the point (prefix-dependent contribution test); Reset runs per object, before this loop
		pts := q.idx.large.PointIdx(int(g.post))
		if scratch.Cardinality() != prev {
			pts = pts[1:]
		}
		for _, pt := range pts {
			q.newLabels.ClearBit(i, int(pt), labelstore.BitUpper)
		}
	}
}

// groupActiveUpper reports whether any point of the group still carries
// the upper-bounding label bit (the WITH-LABEL filter of Algorithm 5
// line 5).
func (q *query) groupActiveUpper(i int, g pointGroup) bool {
	for _, pt := range q.idx.large.PointIdx(int(g.post)) {
		if q.labels.Get(i, int(pt))&labelstore.BitUpper != 0 {
			return true
		}
	}
	return false
}
