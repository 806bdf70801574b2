package core

// A Certificate is what one partial source can vouch for about the
// exact answer: a query stopped mid-pipeline (query.degraded), or a
// shard that was pruned, late or down (shard.Coordinator). Best, when
// Best.Obj ≥ 0, is an object whose exact score is at least Best.Score;
// UB is a score that no object the source may report exceeds, or at
// least none that could be the optimum. Joining the certificates of
// sources that between them cover every reportable object therefore
// certifies the degraded answer's contract (DESIGN.md §10):
//
//	Best.Score = Interval.LB ≤ τ(Best)   and   τ(optimum) ≤ Interval.UB.
type Certificate struct {
	Best Scored
	UB   int
}

// noObject is the Best of a certificate that names no object: every
// scored object outranks it.
var noObject = Scored{Obj: -1, Score: -1}

// BoundOnly returns the certificate of a source that names no object
// but bounds its objects' scores by ub.
func BoundOnly(ub int) Certificate { return Certificate{Best: noObject, UB: ub} }

// Join merges two certificates: the better Best in the canonical order
// (Scored.Outranks), the larger UB.
func (c Certificate) Join(o Certificate) Certificate {
	if o.Best.Outranks(c.Best) {
		c.Best = o.Best
	}
	c.UB = max(c.UB, o.UB)
	return c
}

// Result is the degraded answer c certifies, with stats attached: Best,
// TopK = [Best] and Interval [Best.Score, max(UB, Best.Score)]. It is
// nil when c names no object.
func (c Certificate) Result(stats PhaseStats) *Result {
	if c.Best.Obj < 0 {
		return nil
	}
	return &Result{
		Best:     c.Best,
		TopK:     []Scored{c.Best},
		Stats:    stats,
		Degraded: true,
		Interval: &Interval{LB: c.Best.Score, UB: max(c.UB, c.Best.Score)},
	}
}

// degraded answers a query stopped mid-pipeline (RunTopKContext with
// degrade set) with what the phases that finished certify. top holds
// the candidates verified so far and unverified the rest, both nil
// before verification starts.
//
// Best candidates, all certified lower bounds:
//
//   - a complete lower-bounding pass gives τ^low(o_i) ≤ τ(o_i) for
//     every object (Lemma 1);
//   - a candidate whose exact-score walk was cut short scores at least
//     its partial count (b(o_i) only grows);
//   - top[0]'s score is exact.
//
// UB: n−1 until upper bounding completes; then the allowed objects'
// largest τ^upp (Lemma 2); once verification has started, the larger of
// top[0]'s score and the first unverified candidate's τ^upp.
// Verification runs in descending τ^upp (Corollary 1) over every
// object whose τ^upp reaches the threshold, the optimum among them, so
// the optimum is either verified or bounded by that τ^upp.
//
// If lower bounding did not complete (or grid mapping was truncated,
// leaving bounds computed over a partial grid), no sound bound exists
// and the caller gets the plain context error.
func (q *query) degraded(top []Scored, unverified []candidate) (*Result, error) {
	if !q.degradeOK || q.gmBroke || !q.lbDone {
		return nil, q.ctx.Err()
	}
	c := BoundOnly(q.n - 1)
	switch {
	case len(unverified) > 0:
		c.UB = int(unverified[0].tauUpp)
	case q.ubDone:
		c.UB = q.maxUB()
	}
	ext := q.e.ord.ext
	for i := 0; i < q.n; i++ {
		if q.allowed(i) {
			c = c.Join(Certificate{Best: Scored{Obj: int(ext[i]), Score: int(q.tauLow[i])}})
		}
	}
	if q.trunc != nil {
		c = c.Join(Certificate{Best: *q.trunc})
	}
	if len(top) > 0 {
		c = c.Join(Certificate{Best: top[0], UB: top[0].Score})
	}
	q.finishGridStats()
	if res := c.Result(q.stats); res != nil {
		return res, nil
	}
	// A restriction that allows nobody cannot certify an answer.
	return nil, q.ctx.Err()
}
