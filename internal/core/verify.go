package core

import (
	"math"
	"slices"
	"time"

	"mio/internal/bitmap"
	"mio/internal/core/labelstore"
	"mio/internal/geom"
	"mio/internal/grid"
)

// verification implements VERIFICATION(O_cand, r) (Algorithm 6) with
// the best-first early termination of Corollary 1, generalised to
// top-k, plus the WITH-LABEL variant of §III-D. cand must be sorted by
// descending upper bound. unverified is empty when verification ran to
// its end; when the query was stopped it holds the candidates not yet
// verified, the first of them in q.trunc if its walk was cut short.
func (q *query) verification(cand []candidate) (top []Scored, unverified []candidate) {
	top = make([]Scored, 0, q.k)
	// kthScore returns the current k-th best exact score, or -1 while
	// fewer than k objects have been verified.
	kthScore := func() int {
		if len(top) < q.k {
			return -1
		}
		return top[q.k-1].Score
	}

	for n, c := range cand {
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
			return top, cand[n:]
		}
		i := int(c.obj)
		tau, known := q.recalled(i)
		if !known {
			var whole bool
			if tau, whole = q.exact(i); !whole {
				// The walk was cut short, so tau is only a lower bound
				// (bOi accumulates monotonically); it must not enter the
				// top-k as an exact score. Keep it for the degraded
				// answer instead.
				q.trunc = &Scored{Obj: int(q.e.ord.ext[i]), Score: tau}
				return top, cand[n:]
			}
			q.stats.Verified++
		}
		top = insertTopK(top, Scored{Obj: int(q.e.ord.ext[i]), Score: tau}, q.k)
	}
	return top, nil
}

// exact computes τ(o_i) on the configured number of cores, charging the
// work to q.stats, and records a finished walk's score in the engine's
// memo; whole is false when the query was stopped before the walk
// finished, leaving tau a lower bound. The serial scratch bitsets are
// allocated on the first call and reused by later ones.
func (q *query) exact(i int) (tau int, whole bool) {
	if q.e.opts.workers() > 1 {
		tau, whole = q.parallelExactScore(i)
	} else {
		if q.sBOi == nil {
			q.sBOi, q.sMask = bitmap.NewScratch(q.n), bitmap.NewScratch(q.n)
		}
		ctr := ctrSet{}
		tau, whole = q.exactScore(i, q.sBOi, q.sMask, &ctr)
		q.addCounters([]ctrSet{ctr})
	}
	if whole {
		q.record(i, tau)
	}
	return tau, whole
}

// exactScore computes τ(o_i) with the BIGrid (Algorithm 6 lines 6-19)
// on one core; whole is false when a poll stopped the walk, or the
// large grid's build before it, which leaves 0 as the bound.
func (q *query) exactScore(i int, bOi, mask *bitmap.Scratch, ctr *ctrSet) (tau int, whole bool) {
	if q.gather() == nil {
		return 0, false
	}
	w := scoreWalk{q: q, i: i, bOi: bOi, mask: mask}
	w.run()
	ctr.adjComputed += w.ctr.adjComputed
	ctr.distComps += w.ctr.distComps
	return bOi.Cardinality() - 1, !w.stopped
}

// gather returns the large grid with its coordinates, which a walk
// reads, once per query and before its first walk: a grid taken lean
// from a warm entry gets them gathered (grid.LargeGrid.Gather), and one
// built by largeGrid has them. A warm query whose memo settles every
// candidate walks nothing and gathers nothing. Parallel walkers share
// the grid, so parallelExactScore gathers before it fans out. It
// returns nil when largeGrid's build was cut short.
func (q *query) gather() *grid.LargeGrid {
	large := q.largeGrid()
	if large != nil && large.Xs == nil {
		large = large.Gather(q.e.ds)
		q.idx.large = large
	}
	return large
}

// largeGrid returns the query's large grid, which every read of it
// goes through: Lemma 2 for a survivor the entry lacks and the walks
// (gather). Grid mapping leaves it nil when it found the query's ⌈r⌉
// entry without a warm grid, and largeGrid builds it on the first
// read: the grid of (dataset, ⌈r⌉), which numbers its cells and
// postings as the entry's groups do. The build polls the query's
// context; one cut short returns nil and is neither kept nor
// published, and a complete one is offered to the cache as the entry's
// warm grid. Its time is grid mapping's (lap).
func (q *query) largeGrid() *grid.LargeGrid {
	if q.idx.large != nil {
		return q.idx.large
	}
	t0 := time.Now()
	q.countBuild()
	large, _, complete := grid.Build(q.e.pts, grid.LargeWidth(q.r), 0, nil, 0, q.e.opts.workers(), nil, q.cancelled, nil)
	q.stats.GridMapping += time.Since(t0)
	if !complete {
		return nil
	}
	q.idx.large = large
	q.e.ub.put(q.ub, large.Lean())
	return large
}

// lemma1 sets b to {i} and the objects Lemma 1 certifies interact with
// o_i: the OR of b(c) over the small-grid cells of o_i.L. Lower bounding
// counts it, and every exact score starts from it, so candidate masks
// start without the certain interactions. keyLists come from the
// label-filtered small grid on a WITH-LABEL run and from same-bucket
// cells on a temporal one, so the seed is sound on both.
func (q *query) lemma1(i int, b *bitmap.Scratch) {
	b.Reset()
	b.Set(i)
	for _, c := range q.idx.keyLists[i] {
		b.OrIDs(q.idx.small.CellObjs(int(c)))
	}
}

// skipVerifyPoint reports whether loaded labels let verification skip
// point pt of object obj because it cannot add interactions: label 0**
// at any r with this ⌈r⌉ (Lemma 3), label 1*0 only at the r the set was
// collected at. Labeling-3 observed "b^adj(c) − b(o_i) was empty", and
// b(o_i) — the small-grid seed plus what earlier groups found — is a
// function of the exact r: at another r the same group may be the only
// one that reaches some object.
func (q *query) skipVerifyPoint(obj, pt int) bool {
	if q.labels == nil {
		return false
	}
	l := q.labels.Get(obj, pt)
	return l&labelstore.BitMapped == 0 || (l&labelstore.BitVerify == 0 && q.labels.R == q.r)
}

// scoreWalk is one exact score in progress: the group walk over o_i's
// point groups P_{i,K} in cell order. For each group (cell c) it builds
// the candidate mask b = b^adj(c) − b(o_i) once, looks c's
// neighbourhood up once, and scans each posting that survives the mask
// once against the group's points. Probing stops once the mask empties,
// so DistanceComps depends on the probe order: groups in cell order ×
// neighbours in Key.NeighborsAndSelf order (bucket by bucket on a
// temporal query) × objects ascending × group points in index order.
type scoreWalk struct {
	q         *query
	i         int
	bOi, mask *bitmap.Scratch
	// ctr is a value: the walk's pointers escape with q, and a pointer
	// here would cost every exact score a heap-allocated counter.
	ctr ctrSet
	// share, when non-nil, restricts every mask to the objects this
	// worker owns (parallelExactScore). Whether object j is probed then
	// depends on j's found-state alone, so the workers' counters sum to
	// the serial walk's.
	share *bitmap.Scratch
	// emptyAt, when non-nil, diverts Labeling-3: bit pt records that
	// this worker's share of point pt's group mask was empty. Clearing
	// the label directly would be wrong — other workers may still have
	// survivors; parallelExactScore ANDs the workers' vectors instead.
	emptyAt []uint64
	// probes counts group points scanned against a posting, or spared
	// by its box test; the walk polls for cancellation every 256, so an
	// object whose points all fall into one cell stays cancellable.
	// stopped records a poll that fired: the walk unwinds, and b(o_i) is
	// a lower bound only.
	probes  int
	stopped bool
	// kept holds a group's active points on a WITH-LABEL run.
	kept group
}

// group is the active part of a point group: its points' coordinates
// and their indices within o_i, in index order, and once bound has run,
// their bounding box, prepared for the query's r.
type group struct {
	xs, ys, zs []float64
	idx        []int32
	near       geom.Near
	boxed      bool
}

// bound sets the group's box, which probePosting tests each posting
// against within r2 before it scans the posting per point. A one-point
// group gets none: its box test would be its distance test.
func (g *group) bound(r2 float64) {
	if g.boxed = len(g.idx) > 1; g.boxed {
		g.near = geom.NewNear(geom.BoundBlock(g.xs, g.ys, g.zs), r2)
	}
}

// run seeds b(o_i) with Lemma 1 and walks o_i's groups.
func (w *scoreWalk) run() {
	q, large := w.q, w.q.idx.large
	q.lemma1(w.i, w.bOi)
	var neigh [grid.MaxNeighbors]int32
	for _, g := range q.idx.groups[w.i] {
		grp := w.active(int(g.post))
		if len(grp.idx) == 0 {
			continue
		}
		// WITH-LABEL runs may reach cells whose b^adj (label-filtered)
		// upper bounding never needed; readAdj builds it now (§III-D,
		// VERIFICATION-WITH-LABEL).
		c := int(g.cell)
		adj, _ := q.readAdj(c, &w.ctr)
		w.mask.AndNotFromCompressed(adj, w.bOi)
		if w.share != nil {
			w.mask.AndScratch(w.share)
		}
		if w.mask.Cardinality() == 0 {
			w.labelEmpty(grp.idx)
			continue
		}
		grp.bound(q.r2)
		// Block q.halo of the neighbourhood is the group's own time
		// bucket; pairs with the cells of the others take the time test.
		for s, nc := range neigh[:large.Neighbors(c, &neigh)] {
			if nc >= 0 {
				w.probeCell(int(nc), &grp, s/27 != int(q.halo))
			}
			if w.stopped {
				return
			}
			if w.mask.Cardinality() == 0 {
				break
			}
		}
	}
}

// active returns the points of posting p that skipVerifyPoint keeps: the
// whole posting without labels, else a copy in w.kept. A group with
// none is not visited.
func (w *scoreWalk) active(p int) group {
	large := w.q.idx.large
	xs, ys, zs := large.Points(p)
	g := group{xs: xs, ys: ys, zs: zs, idx: large.PointIdx(p)}
	if w.q.labels == nil {
		return g
	}
	k := &w.kept
	k.xs, k.ys, k.zs, k.idx = k.xs[:0], k.ys[:0], k.zs[:0], k.idx[:0]
	for n, pt := range g.idx {
		if !w.q.skipVerifyPoint(w.i, int(pt)) {
			k.xs, k.ys, k.zs = append(k.xs, g.xs[n]), append(k.ys, g.ys[n]), append(k.zs, g.zs[n])
			k.idx = append(k.idx, pt)
		}
	}
	return *k
}

// labelEmpty is Labeling-3 (Observation 3) lifted to P_{i,K}: the
// group's mask was empty before any probe, so future verifications at
// this r can skip its points.
func (w *scoreWalk) labelEmpty(idx []int32) {
	for _, pt := range idx {
		if w.emptyAt != nil {
			w.emptyAt[pt>>6] |= 1 << uint(pt&63)
		} else if w.q.newLabels != nil {
			w.q.newLabels.ClearBit(w.i, int(pt), labelstore.BitVerify)
		}
	}
}

// probeCell runs the distance computations of Algorithm 6 lines 13-17
// for group g against cell c: every object still in the mask has its
// posting in c scanned once against the group, in ascending order. The
// posting-list/mask intersection runs in whichever direction is
// cheaper: over the cell's postings (O(1) mask test each) when the cell
// is small, else as a merge of the two ascending lists in which each
// side leaps to the other's next element, the mask by its next set bit
// and the cell's run by a gallop. cross is probePosting's.
func (w *scoreWalk) probeCell(c int, g *group, cross bool) {
	large := w.q.idx.large
	objs, first := large.CellObjs(c), int(large.CellOff[c])
	if len(objs) <= w.mask.Cardinality() {
		for pi, obj := range objs {
			if j := int(obj); w.mask.Test(j) {
				if w.probePosting(first+pi, j, g, cross); w.stopped {
					return
				}
			}
		}
		return
	}
	for at := 0; at < len(objs); {
		j := w.mask.NextSet(int(objs[at]))
		if j < 0 {
			return
		}
		if int(objs[at]) != j {
			if at = gallop(objs, at, int32(j)); at == len(objs) || int(objs[at]) != j {
				continue
			}
		}
		if w.probePosting(first+at, j, g, cross); w.stopped {
			return
		}
		at++
	}
}

// gallop returns the first index at or after from whose id is at least
// j in the ascending run ids, or len(ids): steps of 1, 2, 4, … bracket
// it, and a binary search inside the bracket finds it, so a near target
// costs a few compares.
func gallop(ids []int32, from int, j int32) int {
	lo, step := from, 1
	for lo+step < len(ids) && ids[lo+step] < j {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(ids))
	k, _ := slices.BinarySearch(ids[lo:hi], j)
	return lo + k
}

// probePosting resolves posting pi (object j) against group g: one
// 4-wide FirstWithin2 scan of the posting's contiguous coordinates per
// active group point, in index order, until one point within r is
// found. A posting from another time bucket (cross) also needs its
// point within δ of the group point's generation time (Appendix B): a
// spatial hit outside δ resumes the kernel after it. Times are the
// dataset's, reached through point indices. distComps counts the pairs
// a scalar break-on-first-hit loop would have touched: the full posting
// for every group point that misses, then up to and including the hit.
//
// A group with a box first scans the posting once against it
// (geom.Near). No posting point before the first one near the box is
// within r of any group point, so the per-point scans start there; when
// none is near, every group point would miss, and the posting is
// charged and polled as those scans would have been, without them.
func (w *scoreWalk) probePosting(pi, j int, g *group, cross bool) {
	q := w.q
	xs, ys, zs := q.idx.large.Points(pi)
	from := 0
	if g.boxed {
		if from = g.near.First(xs, ys, zs); from < 0 {
			w.ctr.distComps += len(xs) * len(g.idx)
			before := w.probes
			w.probes += len(g.idx)
			if w.probes>>8 != before>>8 && q.cancelled() {
				w.stopped = true
			}
			return
		}
	}
	for k, pt := range g.idx {
		if w.probes++; w.probes&255 == 0 && q.cancelled() {
			w.stopped = true
			return
		}
		var t float64
		if cross {
			t = q.e.ds.Objects[w.i].Times[pt]
		}
		for at := from; at < len(xs); {
			idx := geom.FirstWithin2(g.xs[k], g.ys[k], g.zs[k], xs[at:], ys[at:], zs[at:], q.r2)
			if idx < 0 {
				break
			}
			at += idx + 1
			if !cross || math.Abs(t-q.e.ds.Objects[j].Times[q.idx.large.PointIdx(pi)[at-1]]) <= q.delta {
				w.ctr.distComps += at
				w.bOi.Set(j)
				w.mask.Clear(j)
				return
			}
		}
		w.ctr.distComps += len(xs)
	}
}

// insertTopK inserts s into the canonically-sorted top list
// (Scored.Outranks), keeping at most k entries.
// The paper allows an arbitrary tie-break; the canonical order is
// chosen so the final top-k does not depend on verification order —
// any set of exact scores merges to the same list, which the sharded
// scatter–gather path (internal/shard) relies on for bitwise parity
// with the single-engine oracle.
func insertTopK(top []Scored, s Scored, k int) []Scored {
	pos := len(top)
	for pos > 0 && s.Outranks(top[pos-1]) {
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
