package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"mio/internal/grid"
)

// ubCacheCap is how many ⌈r⌉ entries an engine template's τ^upp cache
// holds before it evicts the least recently used one. r is bounded only
// from below, so a client walking ⌈r⌉ would otherwise grow the cache
// without limit. Without their grids the entries take at most
// ubCacheCap × (32n + 8 × postings) bytes: a count bound, a τ^upp and a
// slice of point groups per object, and a group per posting of the
// grid.
const ubCacheCap = 16

// warmGridBytesPerPoint bounds what the entries' warm grids take
// together: this many bytes per point of the template's dataset, five
// thirds of the point's own 24 bytes of coordinates. A lean grid holds
// no coordinates. On dense data, where cells hold many points, it takes
// about 10 to 15 bytes a point once its b^adj memo fills, and three
// ⌈r⌉ stay warm: after its 40-query stream Neuron-2 at 360 × 300
// (107 618 points) keeps its grids of ⌈r⌉ = 6, 7 and 8 at 1.46, 1.21
// and 1.04 MB, 3.71 MB with every b^adj header and neighbour table
// counted (TestWarmGridsFitNeuron2), which 40 B a point (4.30 MB)
// holds. On sparse data, with nearly a cell per point, one grid takes
// about the whole budget: few stay warm, and none where a grid would
// be dropped as fast as it is built.
const warmGridBytesPerPoint = 40

// ubEntry is upper bounding's state for one large grid: every object's
// count bound B_i (countBounds), and Lemma 2's τ^upp, filled per object
// by the queries that needed it. Both are functions of the grid alone,
// so a query reads and fills an entry whatever its exact r, k, restrict
// mask, Workers or LB/UB strategy: which objects it fills depends on
// its threshold, what it stores does not. A cached entry also holds
// what a query reads of the grid besides Lemma 2 and its walks, so a
// query that needs neither maps its small grid alone (mapGrids), and
// may hold the grid itself.
type ubEntry struct {
	// ceil keys a cached entry: the large-grid width ⌈r⌉ as a float64
	// (an int conversion would fold huge r together).
	ceil float64
	// b is read-only once the entry exists.
	b []int32
	// tau[i] is −1 until a query stores τ^upp(o_i). Lemma 2 is
	// deterministic, so writers that race on one object store equal
	// values.
	tau []atomic.Int32
	// groups are the grid's point groups, which markRead charges and
	// every Lemma 2 and walk follows; cells is its cell count and bytes
	// its footprint without b^adj (finishGridStats). The grid is a
	// function of (dataset, ⌈r⌉), so a grid built again for the entry
	// numbers its cells and postings as groups do. All three are
	// read-only.
	groups [][]pointGroup
	cells  int
	bytes  int
	// smallRecs is the most records a small grid's sweep at this ⌈r⌉
	// kept, by which a query that maps its small grid alone reserves
	// them (grid.Build).
	smallRecs *atomic.Int64
	// grid is the entry's warm grid, the large grid without its
	// coordinates (grid.LargeGrid.Lean): the directory, the postings and
	// the b^adj memo, which every query on it fills. It is nil until a
	// query that built the grid publishes it and again once the budget
	// drops it. A query that finds it builds no large grid, and gathers
	// the coordinates before its first walk (query.gather). ubCache.mu
	// guards it.
	grid *grid.LargeGrid
}

// newUBEntry returns the entry of the large grid idx holds, which must
// be fresh: its b^adj memo is empty.
func newUBEntry(ceil float64, idx *bigrid) *ubEntry {
	e := &ubEntry{
		ceil: ceil, b: countBounds(idx), tau: make([]atomic.Int32, len(idx.groups)),
		groups: idx.groups, cells: idx.cells, bytes: idx.largeBytes, smallRecs: idx.smallRecs,
	}
	for i := range e.tau {
		e.tau[i].Store(-1)
	}
	return e
}

// filled returns how many τ^upp values the entry holds.
func (e *ubEntry) filled() int {
	n := 0
	for i := range e.tau {
		if e.tau[i].Load() >= 0 {
			n++
		}
	}
	return n
}

// ubCache memoises one ubEntry per ⌈r⌉. The large grid of a label-free
// spatial query is a function of (dataset, ⌈r⌉), and an entry of the
// grid alone. NewEngine creates one cache, so every query of the
// engine — concurrent ones included — reads and fills every other's
// entries; Pool.Swap builds a new engine, and with it an empty cache.
//
// Grid mapping looks the entry up (mapGrids), once per query or
// Bound, and upper bounding fills it in place and publishes it
// (computeUpperBounds). Queries that use or collect labels bypass the
// cache (their large grid drops labelled points), and so do temporal
// ones (their grid depends on δ's bucketing); they build their large
// grid in grid mapping.
type ubCache struct {
	mu sync.Mutex
	// entries is in recency order, least recently used first.
	entries []*ubEntry
	// budget bounds the bytes of the entries' warm grids
	// (warmGridBytesPerPoint); the least recently used grid goes first.
	budget   int
	hits     uint64
	misses   uint64
	gridHits uint64
	// builds counts the large grids the cache's queries built
	// (query.countBuild).
	builds atomic.Uint64
}

func newUBCache(points int) *ubCache { return &ubCache{budget: warmGridBytesPerPoint * points} }

// get returns the entry cached for ceil and its warm grid, or nil, and
// counts the lookup as a hit or a miss, and a grid hit.
func (c *ubCache) get(ceil float64) (*ubEntry, *grid.LargeGrid) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.ceil == ceil {
			c.hits++
			copy(c.entries[i:], c.entries[i+1:])
			c.entries[len(c.entries)-1] = e
			c.trim()
			if e.grid != nil {
				c.gridHits++
			}
			return e, e.grid
		}
	}
	c.misses++
	return nil, nil
}

// put publishes e unless an entry for its ⌈r⌉ is cached already: when
// two engines missed on one ⌈r⌉ at once the first entry stays, and the
// other's values are equal to what it holds or will be filled in. g,
// when non-nil, is e's grid without its coordinates: it becomes the
// cached entry's warm grid if it has none and the budget allows.
func (c *ubCache) put(e *ubEntry, g *grid.LargeGrid) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := slices.IndexFunc(c.entries, func(o *ubEntry) bool { return o.ceil == e.ceil })
	if i < 0 {
		if len(c.entries) == ubCacheCap {
			c.entries = append(c.entries[:0], c.entries[1:]...)
		}
		c.entries = append(c.entries, e)
		i = len(c.entries) - 1
	}
	if o := c.entries[i]; g != nil && o.grid == nil && g.SizeBytes() <= c.budget {
		o.grid = g
	}
	c.trim()
}

// trim drops warm grids, least recently used first, until they fit the
// budget. Their b^adj memos grow while queries read them, so every
// lookup, publish and report trims. Callers hold mu.
func (c *ubCache) trim() {
	total := 0
	for _, e := range c.entries {
		if e.grid != nil {
			total += e.grid.SizeBytes()
		}
	}
	for _, e := range c.entries {
		if total <= c.budget {
			return
		}
		if e.grid != nil {
			total -= e.grid.SizeBytes()
			e.grid = nil
		}
	}
}

// IndexCacheStats counts the lookups of an engine template's τ^upp
// cache since it was built, and what its entries and its score memo
// hold. Queries that
// bypass the cache (labels, temporal) count as neither hits nor misses.
type IndexCacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
	// Filled is the number of τ^upp values the entries hold, at most
	// Entries × n.
	Filled int `json:"filled"`
	// GridHits counts the hits whose entry held its warm grid. Every
	// hit maps its small grid alone; one that found no warm grid builds
	// its large grid when it first reads it.
	GridHits uint64 `json:"grid_hits"`
	// LargeBuilds counts the large grids these queries built: one per
	// miss, and one per hit that found no warm grid and then ran Lemma 2
	// for an object the entry lacks or walked an object. Hits + Misses −
	// LargeBuilds are the builds the cache saved.
	LargeBuilds uint64 `json:"large_builds"`
	// Grids is the number of entries holding a warm grid, and GridBytes
	// what those grids take, at most the budget of 40 bytes per point of
	// the dataset.
	Grids     int `json:"grids"`
	GridBytes int `json:"grid_bytes"`
	// Memo is what the engine's score memo holds (memo.go).
	Memo MemoStats `json:"memo"`
}

// Add returns the field-wise sum of s and o, for reporting several
// pools (one per shard) as one.
func (s IndexCacheStats) Add(o IndexCacheStats) IndexCacheStats {
	return IndexCacheStats{
		Hits: s.Hits + o.Hits, Misses: s.Misses + o.Misses, Entries: s.Entries + o.Entries, Filled: s.Filled + o.Filled,
		GridHits: s.GridHits + o.GridHits, LargeBuilds: s.LargeBuilds + o.LargeBuilds, Grids: s.Grids + o.Grids, GridBytes: s.GridBytes + o.GridBytes,
		Memo: MemoStats{Objects: s.Memo.Objects + o.Memo.Objects, Steps: s.Memo.Steps + o.Memo.Steps, Bytes: s.Memo.Bytes + o.Memo.Bytes},
	}
}

func (c *ubCache) stats() IndexCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trim()
	st := IndexCacheStats{Hits: c.hits, Misses: c.misses, GridHits: c.gridHits, LargeBuilds: c.builds.Load(), Entries: len(c.entries)}
	for _, e := range c.entries {
		st.Filled += e.filled()
		if e.grid != nil {
			st.Grids++
			st.GridBytes += e.grid.SizeBytes()
		}
	}
	return st
}
