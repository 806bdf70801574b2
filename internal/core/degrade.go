package core

// degraded assembles a partial answer after the context expired
// mid-pipeline (RunTopKContext with degrade set). The contract: the returned
// Best object's true score lies inside Interval, and Best.Score equals
// Interval.LB, the best certified lower bound available.
//
// Soundness rests on which phases completed:
//
//   - A complete lower-bounding pass gives τ^low(o_i) ≤ τ(o_i) for
//     every object (Lemma 1), so the argmax of tauLow is a defensible
//     "most promising" candidate and its tauLow a certified LB.
//   - A complete upper-bounding pass gives τ^upp(o_i) ≥ τ(o_i)
//     (Lemma 2), tightening the trivial UB of n−1.
//   - A truncated verification contributes two refinements: a partial
//     exact score (valid LB, the bOi accumulation is monotone) for the
//     object being verified, and — via top — fully exact scores for
//     the objects verified before the deadline.
//
// If lower bounding itself did not complete (or grid mapping was
// truncated, leaving bounds computed over a partial grid), no sound
// bound exists and the caller gets the plain context error.
func (q *query) degraded(top []Scored) (*Result, error) {
	if !q.degradeOK || q.gmBroke || !q.lbDone {
		return nil, q.ctx.Err()
	}

	// best is internal until the arg-max is taken, ties going to the
	// lowest external id; from there on it is external, as top's are.
	ext := q.e.ord.ext
	best := -1
	for i := 0; i < q.n; i++ {
		if q.allowed(i) && (best < 0 || q.tauLow[i] > q.tauLow[best] ||
			q.tauLow[i] == q.tauLow[best] && ext[i] < ext[best]) {
			best = i
		}
	}
	if best < 0 {
		// A restriction that allows nobody cannot certify an answer.
		return nil, q.ctx.Err()
	}
	lb := int(q.tauLow[best])
	ub := q.n - 1
	if q.ubDone {
		ub = int(q.tauUpp[best])
	}
	best = int(ext[best])

	// A candidate whose verification was cut short carries a partial
	// exact score: prefer it when it certifies at least as much.
	if t := q.trunc; t != nil && t.lb >= lb {
		best, lb, ub = int(ext[t.obj]), t.lb, t.ub
	}
	// Fully verified candidates have exact scores. Verification runs
	// best-first, so if any verified score ties or beats the certified
	// LB, it is a strictly better answer with a point interval.
	if len(top) > 0 && top[0].Score >= lb {
		best, lb, ub = top[0].Obj, top[0].Score, top[0].Score
	}
	if ub < lb {
		// tauUpp can undercut a trunc/exact LB for the *same* object
		// only by a bug, but different sources may disagree across
		// objects; clamp so the interval stays well-formed.
		ub = lb
	}

	q.finishGridStats()
	res := &Result{
		Best:     Scored{Obj: best, Score: lb},
		TopK:     []Scored{{Obj: best, Score: lb}},
		Stats:    q.stats,
		Degraded: true,
		Interval: &Interval{LB: lb, UB: ub},
	}
	return res, nil
}
