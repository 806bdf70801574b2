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
// ubCacheCap × 8n bytes: a count bound and a τ^upp per object each.
const ubCacheCap = 16

// warmGridBytesPerPoint bounds what the entries' warm grids take
// together: this many bytes per point of the template's dataset, five
// thirds of the point's own 24 bytes of coordinates. A lean grid holds
// no coordinates. On dense data, where cells hold many points, it takes
// about 10 to 15 bytes a point once its b^adj memo fills, and three
// ⌈r⌉ stay warm: after its 40-query stream Neuron-2 at 360 × 300
// (107 618 points) keeps its grids of ⌈r⌉ = 6, 7 and 8 at 1.62, 1.35
// and 1.16 MB, 4.13 MB with every b^adj header and neighbour table
// counted (TestWarmGridsFitNeuron2), which 40 B a point (4.30 MB)
// holds and 36 B (3.87 MB) did not. On sparse data, with nearly a cell
// per point, one grid takes about the whole budget: few stay warm, and
// none where a grid would be dropped as fast as it is mapped.
const warmGridBytesPerPoint = 40

// ubEntry is upper bounding's state for one large grid: every object's
// count bound B_i (countBounds), and Lemma 2's τ^upp, filled per object
// by the queries that needed it. Both are functions of the grid alone,
// so a query reads and fills an entry whatever its exact r, k, restrict
// mask, Workers or LB/UB strategy: which objects it fills depends on
// its threshold, what it stores does not. A cached entry may also hold
// the grid itself (warmGrid).
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
	// grid is the entry's warm grid, nil until a query that mapped the
	// grid publishes it and again once the budget drops it. ubCache.mu
	// guards it.
	grid *warmGrid
}

// warmGrid is the large grid of an entry's ⌈r⌉ kept for later queries:
// the grid without its coordinates (grid.LargeGrid.Lean) — the
// directory, the postings, the b^adj memo — and its point groups. A
// query that finds it maps only its small grid (mapGrids), and gathers
// the coordinates again before its first walk (query.gather). It is read-only but for the b^adj memo,
// which every query on it fills, so its size grows with the cells the
// queries read.
type warmGrid struct {
	large  *grid.LargeGrid
	groups [][]pointGroup
}

// bytes is what the warm grid occupies: the lean grid with its b^adj
// memo, and the point groups, a slice per object and one group per
// posting.
func (w *warmGrid) bytes() int {
	return w.large.SizeBytes() + 24*len(w.groups) + 8*len(w.large.Objs)
}

func newUBEntry(ceil float64, b []int32) *ubEntry {
	e := &ubEntry{ceil: ceil, b: b, tau: make([]atomic.Int32, len(b))}
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
// ones (their grid depends on δ's bucketing).
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
}

func newUBCache(points int) *ubCache { return &ubCache{budget: warmGridBytesPerPoint * points} }

// get returns the entry cached for ceil and its warm grid, or nil, and
// counts the lookup as a hit or a miss, and a grid hit.
func (c *ubCache) get(ceil float64) (*ubEntry, *warmGrid) {
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
// other's values are equal to what it holds or will be filled in. w,
// the grid e's values were computed on, becomes the cached entry's warm
// grid if it has none and the budget allows.
func (c *ubCache) put(e *ubEntry, w *warmGrid) {
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
	if o := c.entries[i]; o.grid == nil && w.bytes() <= c.budget {
		o.grid = w
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
			total += e.grid.bytes()
		}
	}
	for _, e := range c.entries {
		if total <= c.budget {
			return
		}
		if e.grid != nil {
			total -= e.grid.bytes()
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
	// GridHits counts the hits whose entry held its warm grid: those
	// queries mapped only their small grids.
	GridHits uint64 `json:"grid_hits"`
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
		GridHits: s.GridHits + o.GridHits, Grids: s.Grids + o.Grids, GridBytes: s.GridBytes + o.GridBytes,
		Memo: MemoStats{Objects: s.Memo.Objects + o.Memo.Objects, Steps: s.Memo.Steps + o.Memo.Steps, Bytes: s.Memo.Bytes + o.Memo.Bytes},
	}
}

func (c *ubCache) stats() IndexCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trim()
	st := IndexCacheStats{Hits: c.hits, Misses: c.misses, GridHits: c.gridHits, Entries: len(c.entries)}
	for _, e := range c.entries {
		st.Filled += e.filled()
		if e.grid != nil {
			st.Grids++
			st.GridBytes += e.grid.bytes()
		}
	}
	return st
}
