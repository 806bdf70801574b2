package core

import (
	"math"

	"mio/internal/bitmap"
	"mio/internal/core/labelstore"
	"mio/internal/geom"
	"mio/internal/grid"
)

// verification implements VERIFICATION(O_cand, r) (Algorithm 6) with
// the best-first early termination of Corollary 1, generalised to
// top-k, plus the WITH-LABEL variant of §III-D. cand must be sorted by
// descending upper bound.
func (q *query) verification(cand []candidate) []Scored {
	top := make([]Scored, 0, q.k)
	// kthScore returns the current k-th best exact score, or -1 while
	// fewer than k objects have been verified.
	kthScore := func() int {
		if len(top) < q.k {
			return -1
		}
		return top[q.k-1].Score
	}

	for _, c := range cand {
		if int(c.tauUpp) < kthScore() {
			// Corollary 1: no remaining candidate can enter the top-k.
			// The cut is strict so candidates tying the k-th score are
			// still verified: with the canonical tie-break of insertTopK
			// the final list is then a pure function of (dataset, r, k),
			// independent of verification order — which is what lets a
			// sharded merge (internal/shard) reproduce the single-engine
			// answer bitwise.
			break
		}
		if q.cancelled() {
			break
		}
		i := int(c.obj)
		tau := q.exact(i)
		if q.cancelled() {
			// The exact-score loop may have been cut short, so tau is
			// only a lower bound (bOi accumulates monotonically); it must
			// not enter the top-k as an exact score. Keep it for the
			// degraded answer instead, bracketed by the candidate's upper
			// bound.
			lb := tau
			if int(q.tauLow[i]) > lb {
				lb = int(q.tauLow[i])
			}
			q.trunc = &truncCand{obj: i, lb: lb, ub: int(c.tauUpp)}
			break
		}
		q.stats.Verified++
		top = insertTopK(top, Scored{Obj: i, Score: tau}, q.k)
	}
	return top
}

// exact computes τ(o_i) on the configured number of cores, charging the
// work to q.stats. The serial scratch bitsets are allocated on the first
// call and reused by later ones.
func (q *query) exact(i int) int {
	if q.e.opts.workers() > 1 {
		return q.parallelExactScore(i)
	}
	if q.sBOi == nil {
		q.sBOi, q.sMask = bitmap.NewScratch(q.n), bitmap.NewScratch(q.n)
	}
	ctr := ctrSet{}
	tau := q.exactScore(i, q.sBOi, q.sMask, &ctr)
	q.addCounters([]ctrSet{ctr})
	return tau
}

// exactScore computes τ(o_i) with the BIGrid (Algorithm 6 lines 6-19).
func (q *query) exactScore(i int, bOi, mask *bitmap.Scratch, ctr *ctrSet) int {
	bOi.Reset()
	bOi.Set(i)
	if q.lbBits != nil && q.lbBits[i] != nil {
		// WITH-LABEL: start from the lower-bounding bitset — those
		// objects are certain interactions, so candidate masks empty
		// out earlier (§III-D).
		bOi.OrCompressed(q.lbBits[i])
	}
	obj := &q.e.ds.Objects[i]
	st := scoreState{}
	for j, p := range obj.Pts {
		// Point-heavy objects (Neuron has thousands of points each) make
		// a single exact score long enough that the per-candidate check
		// in verification() is not prompt; poll inside the loop too. A
		// cancelled run returns a truncated score, which is still a valid
		// lower bound (bOi only grows); verification() records it as such
		// and never reports it as exact.
		if j&255 == 255 && q.cancelled() {
			break
		}
		if q.skipVerifyPoint(i, j) {
			continue
		}
		q.scorePoint(i, j, p, bOi, mask, ctr, &st)
	}
	return bOi.Cardinality() - 1
}

// skipVerifyPoint reports whether loaded labels let verification skip
// point pt of object obj because it cannot add interactions: label 0**
// at any r with this ⌈r⌉ (Lemma 3), label 1*0 only at the r the set was
// collected at. Labeling-3 observed "b^adj(c) − b(o_i) was empty", and
// b(o_i) — the small-grid seed plus what earlier points found — is a
// function of the exact r: at another r the same point may be the only
// one that reaches some object.
func (q *query) skipVerifyPoint(obj, pt int) bool {
	if q.labels == nil {
		return false
	}
	l := q.labels.Get(obj, pt)
	return l&labelstore.BitMapped == 0 || (l&labelstore.BitVerify == 0 && q.labels.R == q.r)
}

// scoreState carries verification state across the points of one
// object: while consecutive points share a large-grid cell, the
// candidate mask b = b^adj(c) − b(o_i) stays exact (probing clears
// found bits from both mask and adds them to b(o_i)), so it need not be
// rebuilt.
type scoreState struct {
	cell      int
	maskValid bool
	// neigh[:nNeigh] is cell's neighbourhood in probe order, looked up
	// once per same-cell run, and only if a point of the run has a
	// non-empty mask to probe with.
	neigh      [grid.MaxNeighbors]int32
	nNeigh     int
	neighValid bool
	// share, when non-nil, restricts the candidate mask to the objects
	// this worker owns (object-partitioned parallel verification,
	// parallelExactScore). The restriction composes with the mask-reuse
	// invariant: probing only ever clears bits, so a share-restricted
	// mask stays exact across a same-cell run of points.
	share *bitmap.Scratch
	// emptyAt, when non-nil, diverts the Labeling-3 empty-mask signal:
	// instead of clearing the label bit directly (which would be wrong —
	// a worker's share-mask can empty while other workers still have
	// survivors), bit j records that *this worker's share* of point j's
	// mask was empty. The workers' vectors are ANDed after the merge;
	// the conjunction is exactly the serial full-mask-empty condition.
	emptyAt []uint64
}

// scorePoint processes one point of o_i: builds the candidate mask
// b = b^adj(c_K) − b(o_i), then probes posting lists of the cell's
// neighbourhood only for objects whose mask bit survives. The
// neighbours are probed in Key.NeighborsAndSelf order, bucket by bucket
// on a temporal query (LargeGrid.Neighbors): probing stops once the
// mask empties, so DistanceComps depends on the order.
func (q *query) scorePoint(i, j int, p geom.Point, bOi, mask *bitmap.Scratch, ctr *ctrSet, st *scoreState) {
	large := q.idx.large
	c := large.CellOf(i, j)
	if !st.maskValid || c != st.cell {
		if c < 0 {
			st.maskValid = false
			return
		}
		adj := large.Adj(c)
		if adj == nil {
			// WITH-LABEL runs may reach cells whose b^adj was never
			// needed during (label-filtered) upper-bounding; compute it
			// now (§III-D, VERIFICATION-WITH-LABEL).
			var fresh bool
			adj, fresh = large.ComputeAdj(c)
			if q.noteAdj(c, fresh) {
				ctr.adjComputed++
			}
		} else if q.adjBase != nil && q.noteAdj(c, false) {
			// On a shared grid another plan may have materialised this
			// cell's b^adj already; the replay accounting still charges
			// it to this query if a private grid would have.
			ctr.adjComputed++
		}
		mask.AndNotFromCompressed(adj, bOi)
		if st.share != nil {
			mask.AndScratch(st.share)
		}
		st.cell, st.maskValid, st.neighValid = c, true, false
	}
	if mask.Cardinality() == 0 {
		if st.emptyAt != nil {
			st.emptyAt[j>>6] |= 1 << uint(j&63)
		} else if q.newLabels != nil {
			// Labeling-3 (Observation 3): this point's mask is empty;
			// future verifications with the same ⌈r⌉ can skip it.
			q.newLabels.ClearBit(i, j, labelstore.BitVerify)
		}
		return
	}
	if !st.neighValid {
		st.nNeigh = large.Neighbors(c, &st.neigh)
		st.neighValid = true
	}
	// Block q.halo of the neighbourhood is the point's own time bucket;
	// pairs with the cells of the others must pass the time test too.
	var t float64
	if q.halo > 0 {
		t = q.e.ds.Objects[i].Times[j]
	}
	for s, nc := range st.neigh[:st.nNeigh] {
		if nc < 0 {
			continue
		}
		q.probeCell(int(nc), p, t, s/27 != int(q.halo), bOi, mask, ctr)
		if mask.Cardinality() == 0 {
			return
		}
	}
}

// noteAdj decides whether a verification-phase visit to cell c's
// adjacency bitset counts toward this query's AdjComputed. A solo
// query owns its grid, so grid freshness is the answer. Group runs
// (batch.go) share one large grid across member plans: freshness would
// credit whichever plan reached the cell first, so accounting switches
// to a per-query replay — every visit to a cell outside adjBase (the
// cells whose b^adj existed when the shared upper-bounding pass
// finished) counts exactly once per query, which is what a private
// grid would have charged.
func (q *query) noteAdj(c int, fresh bool) bool {
	if q.adjBase == nil {
		return fresh
	}
	if q.adjBase[c] {
		return false
	}
	q.adjMu.Lock()
	defer q.adjMu.Unlock()
	if q.adjSeen == nil {
		q.adjSeen = make([]bool, len(q.adjBase))
	}
	if q.adjSeen[c] {
		return false
	}
	q.adjSeen[c] = true
	return true
}

// probeCell runs the distance computations of Algorithm 6 lines 13-17
// against cell c: for every object still in the mask, scan its posting
// in the cell until one point within r is found. The posting-list/mask
// intersection runs in whichever direction is cheaper: over the cell's
// postings (O(1) mask test each) when the cell is small, over mask bits
// (binary search per posting lookup) when the mask is small. t and
// cross are probePosting's.
func (q *query) probeCell(c int, p geom.Point, t float64, cross bool, bOi, mask *bitmap.Scratch, ctr *ctrSet) {
	large := q.idx.large
	if objs := large.CellObjs(c); len(objs) <= mask.Cardinality() {
		first := int(large.CellOff[c])
		for pi, obj := range objs {
			if j := int(obj); mask.Test(j) {
				q.probePosting(first+pi, j, p, t, cross, bOi, mask, ctr)
			}
		}
		return
	}
	mask.ForEach(func(j int) bool {
		if pi := large.PostingIndex(c, j); pi >= 0 {
			q.probePosting(pi, j, p, t, cross, bOi, mask, ctr)
		}
		return true
	})
}

// probePosting resolves posting pi (object j) against p with the
// 4-wide FirstWithin2 kernel over the posting's contiguous coordinates.
// A posting from another time bucket (cross) also needs its point
// within δ of p's generation time t (Appendix B): a spatial hit outside
// δ resumes the kernel after it. Times are the dataset's, reached
// through the posting's point indices. distComps counts the pairs a
// scalar break-on-first-hit loop would have touched: up to and
// including the hit that resolves the posting, the full posting on a
// miss.
func (q *query) probePosting(pi, j int, p geom.Point, t float64, cross bool, bOi, mask *bitmap.Scratch, ctr *ctrSet) {
	xs, ys, zs := q.idx.large.Points(pi)
	for at := 0; at < len(xs); {
		idx := geom.FirstWithin2(p.X, p.Y, p.Z, xs[at:], ys[at:], zs[at:], q.r2)
		if idx < 0 {
			break
		}
		at += idx + 1
		if !cross || math.Abs(t-q.e.ds.Objects[j].Times[q.idx.large.PointIdx(pi)[at-1]]) <= q.delta {
			ctr.distComps += at
			bOi.Set(j)
			mask.Clear(j)
			return
		}
	}
	ctr.distComps += len(xs)
}

// insertTopK inserts s into the canonically-sorted top list (score
// descending, object id ascending on ties), keeping at most k entries.
// The paper allows an arbitrary tie-break; the canonical order is
// chosen so the final top-k does not depend on verification order —
// any set of exact scores merges to the same list, which the sharded
// scatter–gather path (internal/shard) relies on for bitwise parity
// with the single-engine oracle.
func insertTopK(top []Scored, s Scored, k int) []Scored {
	pos := len(top)
	for pos > 0 && (top[pos-1].Score < s.Score ||
		(top[pos-1].Score == s.Score && top[pos-1].Obj > s.Obj)) {
		pos--
	}
	if pos >= k {
		return top
	}
	top = append(top, Scored{})
	copy(top[pos+1:], top[pos:])
	top[pos] = s
	if len(top) > k {
		top = top[:k]
	}
	return top
}
