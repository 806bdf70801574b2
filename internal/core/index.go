package core

import (
	"context"
	"math"
	"sync/atomic"
	"time"

	"mio/internal/bitmap"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/fault"
	"mio/internal/grid"
)

// pointGroup is P_{i,K}: the points of one object sharing a large-grid
// cell, i.e. one posting. Grouping is established during grid mapping
// (for free, as the paper notes in §IV) and drives both the per-object
// key deduplication of upper-bounding and the cost-based parallel
// partitioning.
type pointGroup struct {
	cell int32
	post int32 // the posting; its point indices are large.PointIdx(post)
}

// bigrid is the BIGrid built online for one query, together with the
// per-object access structures of Algorithm 3.
type bigrid struct {
	small *grid.SmallGrid
	// large is nil while a query that found its ⌈r⌉ entry without a warm
	// grid has not read it; query.largeGrid builds it then.
	large *grid.LargeGrid
	// keyLists[i] is o_i.L: the small-grid cells that o_i shares with
	// at least one other object, in cell order.
	keyLists [][]int32
	// groups[i] are o_i's large-grid point groups P_{i,K}, in cell
	// order.
	groups [][]pointGroup
	// cells and largeBytes are the large grid's cell count and its
	// footprint without b^adj, known whether or not it is built.
	cells, largeBytes int
	// smallRecs is grid.Build's note of the small sweep's records, for
	// the entry a query that built its large grid publishes.
	smallRecs *atomic.Int64
}

// sizeBytes returns the BIGrid memory footprint given its two grids'.
func (b *bigrid) sizeBytes(smallBytes, largeBytes int) int {
	total := smallBytes + largeBytes
	for _, kl := range b.keyLists {
		total += 24 + len(kl)*4
	}
	for _, gs := range b.groups {
		total += 24 + len(gs)*8
	}
	return total
}

// query carries the state of one MIO query through the four phases.
type query struct {
	e *Engine
	r float64
	k int
	n int

	r2 float64 // r²

	idx *bigrid

	// Labels loaded for ⌈r⌉ (nil when none) and labels being collected
	// (nil when not collecting); see Engine.labelInput.
	labels    *labelstore.Labels
	newLabels *labelstore.Labels

	tauLow []int32
	tauUpp []int32
	// ups holds the memo's upper bounds at r, read with its lower ones
	// before the threshold is taken (recallLows) and applied to tauUpp
	// once upper bounding is done (recallUps).
	ups []candidate
	// threshold is the k-th highest τ^low among reportable objects: the
	// query's own verification threshold, before any floor merges in.
	threshold int

	// restrict, when non-nil, limits which objects may be *answers*:
	// kthHighest, assembleCandidates and degraded() only consider
	// objects with restrict[i] set, and neither Lemma 1 nor Lemma 2 is
	// run for the others. A disallowed object's points are still
	// indexed — it contributes to its neighbours' scores, it just cannot
	// be reported. The sharded path (Bound) restricts answers to a
	// shard's primary objects so border replicas are never
	// double-reported.
	restrict []bool

	// Scratch bitsets for serial exact scoring (see exact), then the
	// per-worker ones for parallel verification, all allocated lazily on
	// the first verified candidate. vShare[w] is worker w's
	// object share {j : j mod t == w}, constant for the whole query.
	sBOi   *bitmap.Scratch
	sMask  *bitmap.Scratch
	vBOi   []*bitmap.Scratch
	vMask  []*bitmap.Scratch
	vShare []*bitmap.Scratch

	// Appendix B's time axis (temporal.go), zero on a spatial query:
	// every point number's time bucket for grid mapping, how many
	// buckets either side of its own a neighbourhood spans, and δ, which
	// pairs across buckets are held to in verification (probePosting).
	bucket []int32
	halo   int32
	delta  float64

	// ctx carries the caller's cancellation; nil means background.
	ctx context.Context

	// read is the read-set: bit c is set once the query has read
	// b^adj(c) (readAdj, markRead). ub is the entry upper bounding
	// reads and fills (ubEntry): the cached one grid mapping found,
	// else computeUpperBounds makes it.
	read readSet
	ub   *ubEntry

	// Degraded-answer bookkeeping (RunTopKContext). degradeOK
	// opts in; the completion flags record which phases ran to the end
	// (an early cancellation break leaves them false, so partial bound
	// vectors are never certified); trunc holds the verification
	// candidate whose exact-score walk was cut short mid-object, with
	// its partial score (external id).
	degradeOK bool
	gmBroke   bool
	lbDone    bool
	ubDone    bool
	trunc     *Scored

	stats PhaseStats
}

// newQuery returns the carrier for one validated (r, k), clamping k to
// the dataset size.
func newQuery(e *Engine, r float64, k int) *query {
	return &query{
		e:  e,
		r:  r,
		k:  min(k, e.ds.N()),
		n:  e.ds.N(),
		r2: r * r,
	}
}

// ceilR returns the large-grid identity ⌈r⌉ used as the label key.
func (q *query) ceilR() int { return int(math.Ceil(q.r)) }

// cancelled reports whether the caller has abandoned the query. Hot
// loops call this every few hundred objects, not per item.
func (q *query) cancelled() bool {
	if q.ctx == nil {
		return false
	}
	select {
	case <-q.ctx.Done():
		return true
	default:
		return false
	}
}

// fire triggers the named fault-injection point when a registry is
// configured; a nil registry is one pointer check.
func (q *query) fire(point string) error {
	return q.e.opts.Faults.Fire(point)
}

// run executes the framework of Algorithm 2.
func (q *query) run() (*Result, error) {
	if res, err := q.bound(); res != nil || err != nil {
		return res, err
	}
	return q.publish(q.complete(0))
}

// publish is the post-processing step of an exact answer: it outputs
// the labels the query collected (publishLabels) and passes its
// arguments through. A degraded answer or an error publishes nothing.
func (q *query) publish(res *Result, err error) (*Result, error) {
	if err == nil && !res.Degraded {
		res.Stats.LabelPersistFailed = q.e.publishLabels(q.ceilR(), q.newLabels)
	}
	return res, err
}

// objectPointWeights returns per-object point counts, the weights of
// every partition "by |P_i|".
func objectPointWeights(ds *data.Dataset) []int {
	w := make([]int, ds.N())
	for i := range ds.Objects {
		w[i] = len(ds.Objects[i].Pts)
	}
	return w
}

// labelInput is Algorithm 2's first step (§III-D) for a query with
// label key ceil: an O(1) existence check, then either the O(nm/B)
// load of a stored set (use) or a fresh all-ones set to fill in
// (collect), stamped with the exact r its Labeling-3 bits will be valid
// for. dur is what the paper's "Label-Input" row times. A store holds
// label sets in the caller's object order; the query reads and fills
// them through a view in internal order (labelRows), and publishLabels
// hands the store the caller's order back, so stored sets and files
// never depend on the engine's order.
func (e *Engine) labelInput(ceil int, r float64) (use, collect *labelstore.Labels, dur time.Duration) {
	store := e.opts.Labels
	if store == nil {
		return nil, nil, 0
	}
	t0 := time.Now()
	if l, ok := store.Get(ceil); ok {
		use = labelRows(l, e.ord.ext)
	} else {
		collect = labelstore.NewLabels(objectPointWeights(e.ds))
		collect.R = r
	}
	return use, collect, time.Since(t0)
}

// publishLabels is the post-processing step (§III-D "labels are
// outputted in post-processing"). Labels are a reusable cache, not
// part of the answer: a failed persist (disk full, injected IO fault)
// is reported in the stats but must not fail an exact query. The store
// keeps the set in memory either way, so this process stays warm; only
// a restart loses the work.
func (e *Engine) publishLabels(ceil int, l *labelstore.Labels) (persistFailed bool) {
	if l == nil {
		return false
	}
	return e.opts.Labels.Put(ceil, labelRows(l, e.ord.pos)) != nil
}

// bound runs label input, grid mapping, lower bounding and upper
// bounding, leaving tauLow, tauUpp and threshold set. It returns
// (nil, nil) when all four completed and the query can go on to
// complete; otherwise the query ends here with what it returns: an
// injected fault, or — the query having been stopped — whatever
// degraded makes of the phases that did finish.
func (q *query) bound() (*Result, error) {
	if err := q.fire(fault.PointLabelInput); err != nil {
		return nil, err
	}
	q.labels, q.newLabels, q.stats.LabelInput = q.e.labelInput(q.ceilR(), q.r)
	if err := q.fire(fault.PointGridMapping); err != nil {
		return nil, err
	}
	t0 := time.Now()
	q.gridMapping()
	q.stats.GridMapping = time.Since(t0)
	if q.labels != nil {
		q.stats.UsedLabels = true
		q.stats.LabelBytes = q.labels.SizeBytes()
	}
	q.stats.SmallCells = q.idx.small.Len()
	q.stats.LargeCells = q.idx.cells
	if q.cancelled() {
		// No bound vector exists yet, so degraded can only decline.
		return q.degraded(nil, nil)
	}

	if err := q.fire(fault.PointLowerBounding); err != nil {
		return nil, err
	}
	t0 = time.Now()
	q.lowerBounding()
	q.recallLows()
	q.threshold = q.kthHighest(q.tauLow)
	q.stats.LowerBounding = time.Since(t0)
	if q.cancelled() {
		return q.degraded(nil, nil)
	}

	if err := q.fire(fault.PointUpperBounding); err != nil {
		return nil, err
	}
	lap := q.lap()
	q.computeUpperBounds()
	q.recallUps()
	q.stats.UpperBounding = lap()
	if q.cancelled() {
		return q.degraded(nil, nil)
	}
	return nil, nil
}

// lap starts timing a phase: the returned func gives the time since,
// less the large-grid builds in between, which largeGrid charges to
// grid mapping.
func (q *query) lap() func() time.Duration {
	t0, mapped := time.Now(), q.stats.GridMapping
	return func() time.Duration { return time.Since(t0) - (q.stats.GridMapping - mapped) }
}

// complete finishes a bounded query: candidates are assembled against
// max(threshold, floor) and verified best-first with the Corollary 1
// cut. floor must be a sound threshold (at least k reportable objects
// anywhere score ≥ floor); 0 asks for the query's own. Publishing the
// collected labels is the caller's step (publish).
func (q *query) complete(floor int) (*Result, error) {
	t0 := time.Now()
	cand := q.assembleCandidates(max(q.threshold, floor))
	q.stats.UpperBounding += time.Since(t0)
	q.stats.Candidates = len(cand)
	if q.cancelled() {
		return q.degraded(nil, nil)
	}

	if err := q.fire(fault.PointVerification); err != nil {
		return nil, err
	}
	lap := q.lap()
	topk, unverified := q.verification(cand)
	q.stats.Verification = lap()
	if len(unverified) > 0 {
		return q.degraded(topk, unverified)
	}

	q.finishGridStats()
	res := &Result{TopK: topk, Stats: q.stats}
	if len(topk) > 0 {
		res.Best = topk[0]
	}
	return res, nil
}

// finishGridStats records the index-footprint numbers; split out so
// the degraded path can report them too once the grid exists. The
// b^adj memoised on the large grid are left out: which cells need one
// depends on the threshold (computeUpperBounds' cascade) and, on a warm
// grid, on the queries before, so the footprint stays a function of
// (dataset, r). The large grid counts with its coordinates whether the
// query built it, gathered a warm grid's coordinates, or read neither.
func (q *query) finishGridStats() {
	q.stats.SmallGridBytes = q.idx.small.SizeBytes()
	q.stats.SmallGridUncompressedBytes = q.idx.small.UncompressedSizeBytes(q.n)
	q.stats.LargeGridBytes = q.idx.largeBytes
	q.stats.IndexBytes = q.idx.sizeBytes(q.stats.SmallGridBytes, q.stats.LargeGridBytes)
}

// pruned reports whether labels prune point pt of object obj entirely
// (label 0**, Lemma 3).
func pruned(labels *labelstore.Labels, obj, pt int) bool {
	return labels != nil && labels.Get(obj, pt)&labelstore.BitMapped == 0
}

// gridMapping implements GRID-MAPPING(O, r) (Algorithm 3), its
// WITH-LABEL variant and PARALLEL-GRID-MAPPING: one build whatever the
// configuration, which also looks up the query's upper-bounding entry.
func (q *query) gridMapping() {
	idx, ub, complete := q.e.mapGrids(q.r, q.ubCache(), q.labels, q.bucket, q.halo, q.cancelled)
	if ub == nil {
		q.countBuild()
	}
	q.ub = ub
	idx.keyLists = keyListsOf(idx.small, q.n)
	q.useIndex(idx)
	// The truncated grid is discarded by bound()'s post-phase ctx check;
	// gmBroke records the truncation so a degraded answer is never
	// certified from a partial grid.
	q.gmBroke = !complete
}

// useIndex installs the query's BIGrid, with an empty read-set over its
// large grid: the index is the query's own even when its large grid is
// a warm grid other queries share.
func (q *query) useIndex(idx *bigrid) {
	q.idx = idx
	q.read = newReadSet(idx.cells)
}

// countBuild charges a large-grid build to the query and, unless the
// query bypasses it, to the engine's cache (IndexCacheStats).
func (q *query) countBuild() {
	q.stats.LargeBuilds++
	if c := q.ubCache(); c != nil {
		c.builds.Add(1)
	}
}

// mapGrids maps the grids of threshold r, all but the key lists. cache,
// when non-nil, is looked up for ⌈r⌉ first, and ub is the entry it
// holds. An entry holds what the query reads of the large grid besides
// Lemma 2 and its walks, so only the small grid is mapped: the large
// grid is the entry's warm grid, lean until the query's first walk
// gathers its coordinates (query.gather), or, when the entry has none,
// nil until the query first reads it (query.largeGrid). Without an
// entry the large and the small grid are built in one sweep over the
// points, and the point groups derived. labels, when non-nil, filter
// the points (WITH-LABEL); bucket and halo are grid.Build's time axis,
// nil and 0 but on a temporal query. Grid mapping is the first long
// phase, so the sweep polls stop to let an abandoned query return
// promptly; complete is false when that cut it short.
func (e *Engine) mapGrids(r float64, cache *ubCache, labels *labelstore.Labels, bucket []int32, halo int32, stop func() bool) (idx *bigrid, ub *ubEntry, complete bool) {
	smallWidth := grid.SmallWidth(r, e.opts.dims())
	var keep func(obj, pt int) bool
	if labels != nil {
		keep = func(obj, pt int) bool { return !pruned(labels, obj, pt) }
	}
	largeWidth := grid.LargeWidth(r)
	idx = &bigrid{}
	if cache != nil {
		ub, idx.large = cache.get(largeWidth)
	}
	if ub != nil {
		_, idx.small, complete = grid.Build(e.pts, 0, smallWidth, bucket, 0, e.opts.workers(), keep, stop, ub.smallRecs)
		idx.groups, idx.cells, idx.largeBytes = ub.groups, ub.cells, ub.bytes
		return idx, ub, complete
	}
	idx.smallRecs = new(atomic.Int64)
	idx.large, idx.small, complete = grid.Build(e.pts, largeWidth, smallWidth, bucket, halo, e.opts.workers(), keep, stop, idx.smallRecs)
	// A fresh grid has its coordinates and no b^adj yet.
	idx.groups, idx.cells, idx.largeBytes = groupsOf(idx.large, e.ds.N()), idx.large.Len(), idx.large.SizeBytes()
	return idx, nil, complete
}

// groupsOf derives the point groups P_{i,K} from the inverted lists —
// each posting is exactly one group, so the grouping the parallel
// phases need comes for free from grid building (§IV). Postings are
// stored in cell order, so every object's groups come out in cell
// order: group order drives the parallel phases' greedy partitions, the
// prefix-dependent Labeling-2 decision and the round-robin point
// assignment of parallel verification, so it must be a function of the
// query alone for the work counters to repeat.
func groupsOf(large *grid.LargeGrid, n int) [][]pointGroup {
	next := make([]int32, n+1)
	for _, obj := range large.Objs {
		next[obj+1]++
	}
	for i := 0; i < n; i++ {
		next[i+1] += next[i]
	}
	flat := make([]pointGroup, len(large.Objs))
	groups := make([][]pointGroup, n)
	for i := range groups {
		groups[i] = flat[next[i]:next[i+1]:next[i+1]]
	}
	for c := 0; c < large.Len(); c++ {
		for p := int(large.CellOff[c]); p < int(large.CellOff[c+1]); p++ {
			obj := large.Objs[p]
			flat[next[obj]] = pointGroup{cell: int32(c), post: int32(p)}
			next[obj]++
		}
	}
	return groups
}

// keyListsOf derives the per-object key lists from a small grid:
// o_i.L = {c : i ∈ b(c), |b(c)| ≥ 2}, the invariant Algorithm 3
// maintains incrementally, in cell order.
func keyListsOf(small *grid.SmallGrid, n int) [][]int32 {
	next := make([]int32, n+1)
	shared := 0
	for c := 0; c < small.Len(); c++ {
		if objs := small.CellObjs(c); len(objs) >= 2 {
			shared += len(objs)
			for _, obj := range objs {
				next[obj+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		next[i+1] += next[i]
	}
	flat := make([]int32, shared)
	keyLists := make([][]int32, n)
	for i := range keyLists {
		keyLists[i] = flat[next[i]:next[i+1]:next[i+1]]
	}
	for c := 0; c < small.Len(); c++ {
		if objs := small.CellObjs(c); len(objs) >= 2 {
			for _, obj := range objs {
				flat[next[obj]] = int32(c)
				next[obj]++
			}
		}
	}
	return keyLists
}
