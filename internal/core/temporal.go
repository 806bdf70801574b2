package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"mio/internal/bitmap"
	"mio/internal/data"
	"mio/internal/geom"
	"mio/internal/grid"
)

// This file implements the temporal extension of Appendix B: objects
// interact iff they have a point pair within distance r generated
// within δ time of each other. The time domain is decomposed into δ
// buckets and a BIGrid-style structure is built per bucket; two points
// in the same bucket always satisfy the temporal constraint (bucket
// span < δ), so same-bucket small-grid cells give lower bounds, while
// upper-bounding and verification consult a bucket and its two
// neighbours. δ = 0 is the special case the appendix calls out: one
// structure per distinct generation time, consulted alone.
//
// Only what the appendix changes lives here: the (bucket, cell) maps
// and three per-object functions over them. Everything else is the
// spatial engine's, run on a borrowed query: NewEngine, validate,
// kthHighest, assembleCandidates, verification, eachObject.

// tKey addresses a cell of one time bucket's grid.
type tKey struct {
	bucket int32
	cell   grid.Key
}

// tPosting is one object's points in a cell, with their generation times.
type tPosting struct {
	obj   int32
	pts   []geom.Point
	times []float64
}

type tCell struct {
	b        *bitmap.Compressed
	postings []tPosting
}

func (c *tCell) posting(obj int) *tPosting {
	i := sort.Search(len(c.postings), func(i int) bool { return int(c.postings[i].obj) >= obj })
	if i < len(c.postings) && int(c.postings[i].obj) == obj {
		return &c.postings[i]
	}
	return nil
}

// TemporalEngine processes spatio-temporal MIO queries over a dataset
// whose points carry generation times.
type TemporalEngine struct {
	e *Engine
	// maxAbsT is the largest |timestamp|; RunTopK holds δ against it the
	// way validate holds r against maxAbs.
	maxAbsT float64
}

// NewTemporalEngine returns an engine over ds, which must satisfy
// NewEngine and whose objects must all carry timestamps.
func NewTemporalEngine(ds *data.Dataset, opts Options) (*TemporalEngine, error) {
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
			if t = math.Abs(t); t > te.maxAbsT {
				te.maxAbsT = t
			}
		}
	}
	return te, nil
}

// tQuery is the per-query state Appendix B adds to a query, which
// carries r, k, the bound vectors and the stats.
type tQuery struct {
	*query
	delta float64
	// halo is how many buckets either side of a point's own can hold
	// its temporal neighbours: 1, or 0 when δ = 0.
	halo           int32
	smallW, largeW float64 // cell widths, as the spatial grids'

	small   map[tKey]*bitmap.Compressed
	large   map[tKey]*tCell
	union   map[tKey]*bitmap.Compressed // memoised 27-cell unions per bucket
	unionMu sync.Mutex                  // guards union during parallel phases
	// exactTimes maps distinct timestamps to bucket ids when δ = 0.
	exactTimes map[float64]int32
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
	q := &tQuery{
		query:      newQuery(te.e, r, k),
		delta:      delta,
		smallW:     grid.SmallWidth(r, te.e.opts.dims()),
		largeW:     grid.LargeWidth(r),
		small:      make(map[tKey]*bitmap.Compressed),
		large:      make(map[tKey]*tCell),
		union:      make(map[tKey]*bitmap.Compressed),
		exactTimes: make(map[float64]int32),
	}
	if delta > 0 {
		// Bucket ids floor(t/δ) and their ±1 neighbours must stay inside
		// int32, as cell coordinates must (validate).
		if !(te.maxAbsT/delta < math.MaxInt32-1) {
			return nil, fmt.Errorf("%w: δ=%g is too small for timestamps up to ±%g: bucket ids would overflow int32", ErrInvalidQuery, delta, te.maxAbsT)
		}
		q.halo = 1
	}
	q.exactOf = q.tExactScore
	q.sBOi, q.sMask = bitmap.NewScratch(q.n), bitmap.NewScratch(q.n)
	q.build()
	q.tauLow = make([]int32, q.n)
	q.eachObject(q.pointCount, q.tLowerBound)
	q.tauUpp = make([]int32, q.n)
	q.eachObject(q.pointCount, q.tUpperBound)
	cand := q.assembleCandidates(q.kthHighest(q.tauLow))
	q.stats.Candidates = len(cand)
	top := q.verification(cand)
	res := &Result{TopK: top, Stats: q.stats}
	if len(top) > 0 {
		res.Best = top[0]
	}
	return res, nil
}

// bucketOf maps a timestamp to its bucket id. With δ = 0 it interns
// distinct timestamps; every timestamp is registered during build, so
// later phases (including parallel ones) only read the map.
func (q *tQuery) bucketOf(t float64) int32 {
	if q.delta != 0 {
		return int32(math.Floor(t / q.delta))
	}
	id, ok := q.exactTimes[t]
	if !ok {
		id = int32(len(q.exactTimes))
		q.exactTimes[t] = id
	}
	return id
}

func (q *tQuery) build() {
	for i := range q.e.ds.Objects {
		o := &q.e.ds.Objects[i]
		for j, p := range o.Pts {
			b := q.bucketOf(o.Times[j])
			sk := tKey{bucket: b, cell: grid.KeyFor(p, q.smallW)}
			sb, ok := q.small[sk]
			if !ok {
				sb = bitmap.New()
				q.small[sk] = sb
			}
			sb.Set(i)
			lk := tKey{bucket: b, cell: grid.KeyFor(p, q.largeW)}
			lc, ok := q.large[lk]
			if !ok {
				lc = &tCell{b: bitmap.New()}
				q.large[lk] = lc
			}
			lc.b.Set(i)
			if n := len(lc.postings); n == 0 || int(lc.postings[n-1].obj) != i {
				lc.postings = append(lc.postings, tPosting{obj: int32(i)})
			}
			post := &lc.postings[len(lc.postings)-1]
			post.pts = append(post.pts, p)
			post.times = append(post.times, o.Times[j])
		}
	}
}

// tLowerBound ORs the same-bucket small-grid cells of every point
// of o_i: those pairs satisfy both constraints unconditionally.
func (q *tQuery) tLowerBound(i int, scratch *bitmap.Scratch, _ *ctrSet) {
	o := &q.e.ds.Objects[i]
	scratch.Reset()
	for j, p := range o.Pts {
		sk := tKey{bucket: q.bucketOf(o.Times[j]), cell: grid.KeyFor(p, q.smallW)}
		if sb := q.small[sk]; sb != nil && sb.Cardinality() >= 2 {
			scratch.OrCompressed(sb)
		}
	}
	q.tauLow[i] = int32(max(scratch.Cardinality()-1, 0))
}

// adjUnion returns the OR of b(c) over the 27-cell neighbourhood of
// (bucket, cell), memoised. It works even when the anchor cell itself
// is empty (a temporal neighbour bucket may populate only nearby
// cells). Safe for concurrent use: duplicated computation is possible
// under contention but the published value is deterministic.
func (q *tQuery) adjUnion(k tKey) *bitmap.Compressed {
	q.unionMu.Lock()
	a, ok := q.union[k]
	q.unionMu.Unlock()
	if ok {
		return a
	}
	var neigh [27]grid.Key
	bms := make([]*bitmap.Compressed, 0, 27)
	for _, nk := range k.cell.NeighborsAndSelf(neigh[:0]) {
		if c := q.large[tKey{bucket: k.bucket, cell: nk}]; c != nil {
			bms = append(bms, c.b)
		}
	}
	a = bitmap.OrAll(bms)
	q.unionMu.Lock()
	defer q.unionMu.Unlock()
	if prev, ok := q.union[k]; ok {
		return prev
	}
	q.union[k] = a
	return a
}

// tUpperBound ORs the adjacency unions of each point's cell across
// its temporal bucket window.
func (q *tQuery) tUpperBound(i int, scratch *bitmap.Scratch, _ *ctrSet) {
	o := &q.e.ds.Objects[i]
	scratch.Reset()
	for j, p := range o.Pts {
		ck := grid.KeyFor(p, q.largeW)
		b := q.bucketOf(o.Times[j])
		for wb := b - q.halo; wb <= b+q.halo; wb++ {
			scratch.OrCompressed(q.adjUnion(tKey{bucket: wb, cell: ck}))
		}
	}
	q.tauUpp[i] = int32(max(scratch.Cardinality()-1, 0))
}

// tExactScore computes τ(o_i) under both thresholds: Algorithm 6's
// masked probe over each point's bucket window, with the time test
// beside the distance test.
func (q *tQuery) tExactScore(i int) int {
	bOi, mask := q.sBOi, q.sMask
	var neigh [27]grid.Key
	o := &q.e.ds.Objects[i]
	bOi.Reset()
	bOi.Set(i)
	for j, p := range o.Pts {
		pt := o.Times[j]
		ck := grid.KeyFor(p, q.largeW)
		b := q.bucketOf(pt)
		for wb := b - q.halo; wb <= b+q.halo; wb++ {
			mask.AndNotFromCompressed(q.adjUnion(tKey{bucket: wb, cell: ck}), bOi)
			if mask.Cardinality() == 0 {
				continue
			}
			for _, nk := range ck.NeighborsAndSelf(neigh[:0]) {
				cell := q.large[tKey{bucket: wb, cell: nk}]
				if cell == nil {
					continue
				}
				mask.ForEach(func(jj int) bool {
					post := cell.posting(jj)
					if post == nil {
						return true
					}
					for pi, pp := range post.pts {
						//lint:ignore dist2 temporal filter interleaves the per-point time check, which the spatial batch kernel cannot express
						if geom.Dist2(p, pp) <= q.r2 && math.Abs(pt-post.times[pi]) <= q.delta {
							bOi.Set(jj)
							mask.Clear(jj)
							break
						}
					}
					return true
				})
				if mask.Cardinality() == 0 {
					break
				}
			}
		}
	}
	return bOi.Cardinality() - 1
}
