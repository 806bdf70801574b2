package core

import (
	"math"
	"sync"
)

// scoreMemoBytes bounds what an engine's score memo holds: about
// 20 000 steps. A record that would pass it empties the memo first, so
// the memo holds what the latest queries learnt.
const scoreMemoBytes = 1 << 20

// The memo's byte accounting: a step is two float64 and a score; an
// object adds its map entry, a key and a slice header.
const (
	memoStepBytes   = 24
	memoObjectBytes = 48
)

// memoGap is how far apart, relative to r, two distinct thresholds
// must be for a score at one to bound the score at the other. τ_r is
// monotone in r for every pair the float test d² ≤ r² decides, but
// Lemma 1's seeds are geometric: the d² of a pair in one small cell may
// pass r² by about 2⁻²⁰ of it where cell numbers reach 2³¹, and one ulp
// of r away the pair may be neither a seed nor within r². Across
// 2⁻¹⁸ the float test takes every such pair (DESIGN.md §18.1).
const memoGap = 0x1p-18

// scoreStep is one score of one object and the least and the largest
// r it was observed at.
type scoreStep struct {
	lo, hi float64
	score  int32
}

// scoreMemo holds the exact scores the engine's walks found: per
// object, in internal ids, a step function of r, one step per distinct
// score. τ_r(o_i) is non-decreasing in r, so a score s observed at r′
// bounds τ_r from below for r ≥ r′ and from above for r ≤ r′ (outside
// memoGap). Every query of the engine reads and writes it, under mu;
// temporal queries do neither, and queries that collect labels only
// write. A nil memo holds nothing and records nothing.
type scoreMemo struct {
	mu    sync.Mutex
	steps map[int32][]scoreStep
	count int // steps held
}

func newScoreMemo() *scoreMemo { return &scoreMemo{steps: map[int32][]scoreStep{}} }

// bytes is what the memo holds by its accounting. Callers hold mu.
func (m *scoreMemo) bytes() int {
	return memoObjectBytes*len(m.steps) + memoStepBytes*m.count
}

// record notes that a finished walk found τ_r(o_i) = score.
func (m *scoreMemo) record(i int, r float64, score int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	steps, ok := m.steps[int32(i)]
	for k := range steps {
		if s := &steps[k]; int(s.score) == score {
			s.lo, s.hi = min(s.lo, r), max(s.hi, r)
			return
		}
	}
	grow := memoStepBytes
	if !ok {
		grow += memoObjectBytes
	}
	if m.bytes()+grow > scoreMemoBytes {
		clear(m.steps)
		m.count = 0
		steps = nil
	}
	m.steps[int32(i)] = append(steps, scoreStep{lo: r, hi: r, score: int32(score)})
	m.count++
}

// bracket returns what an object's steps say of its τ_r: lo ≤ τ_r ≤
// hi, with 0 and math.MaxInt32 where they say nothing.
func bracket(steps []scoreStep, r float64) (lo, hi int32) {
	lo, hi = 0, math.MaxInt32
	for _, s := range steps {
		if s.lo == r || s.lo < r*(1-memoGap) {
			lo = max(lo, s.score)
		}
		if s.hi == r || s.hi > r*(1+memoGap) {
			hi = min(hi, s.score)
		}
	}
	return lo, hi
}

// exact returns τ_r(o_i) when the memo's bracket at r is closed.
func (m *scoreMemo) exact(i int, r float64) (tau int, ok bool) {
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	lo, hi := bracket(m.steps[int32(i)], r)
	return int(lo), lo == hi
}

// MemoStats is what an engine's score memo holds: the objects with a
// recorded score, their steps, and the bytes they take by the memo's
// accounting, at most 1 MiB.
type MemoStats struct {
	Objects int `json:"objects"`
	Steps   int `json:"steps"`
	Bytes   int `json:"bytes"`
}

func (m *scoreMemo) stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Objects: len(m.steps), Steps: m.count, Bytes: m.bytes()}
}

// readsMemo reports whether the query may use recorded scores. A
// temporal query's score also depends on δ, and a query that collects
// labels walks every candidate a cold engine would, so the label set it
// stores stays the same whatever the engine ran before (Labeling-3 is
// a side effect of the walks).
func (q *query) readsMemo() bool { return q.e.memo != nil && q.bucket == nil && q.newLabels == nil }

// record notes a finished walk's score, unless the query is temporal.
func (q *query) record(i, tau int) {
	if q.bucket == nil {
		q.e.memo.record(i, q.r, tau)
	}
}

// recalled returns τ_r(o_i) when the memo's bracket is closed.
func (q *query) recalled(i int) (tau int, ok bool) {
	if !q.readsMemo() {
		return 0, false
	}
	return q.e.memo.exact(i, q.r)
}

// recallLows raises τ^low(o_i) to the score at the largest known
// r′ ≤ r, and keeps the score at the smallest known r″ ≥ r for
// recallUps. It reads only the objects the memo holds, so an empty
// memo costs nothing.
func (q *query) recallLows() {
	if !q.readsMemo() {
		return
	}
	m := q.e.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, steps := range m.steps {
		lo, hi := bracket(steps, q.r)
		q.tauLow[i] = max(q.tauLow[i], lo)
		if hi < math.MaxInt32 {
			q.ups = append(q.ups, candidate{obj: i, tauUpp: hi})
		}
	}
}

// recallUps lowers the query's own τ^upp(o_i) to what recallLows kept;
// the upper-bounding entry's value, a function of the grid, stays.
func (q *query) recallUps() {
	for _, u := range q.ups {
		q.tauUpp[u.obj] = min(q.tauUpp[u.obj], u.tauUpp)
	}
}
