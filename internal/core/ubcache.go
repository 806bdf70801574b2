package core

import (
	"sync"
	"sync/atomic"
)

// ubCacheCap is how many ⌈r⌉ entries an engine template's τ^upp cache
// holds before it evicts the least recently used one. r is bounded only
// from below, so a client walking ⌈r⌉ would otherwise grow the cache
// without limit; at the cap it holds ubCacheCap × 8n bytes of entries.
const ubCacheCap = 16

// ubEntry is upper bounding's state for one large grid: every object's
// count bound B_i (countBounds), and Lemma 2's τ^upp, filled per object
// by the queries that needed it. Both are functions of the grid alone,
// so a query reads and fills an entry whatever its exact r, k, restrict
// mask, Workers or LB/UB strategy: which objects it fills depends on
// its threshold, what it stores does not.
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
// grid alone. NewEngine creates one cache and clone shares it, so every
// engine of a Pool reads and fills every other's entries; Pool.Swap
// builds a new template, and with it an empty cache.
//
// computeUpperBounds is the only reader, and fills a published entry in
// place. Queries that use or collect labels bypass the cache (their
// large grid drops labelled points), and so do temporal ones (their
// grid depends on δ's bucketing).
type ubCache struct {
	mu sync.Mutex
	// entries is in recency order, least recently used first.
	entries []*ubEntry
	hits    uint64
	misses  uint64
}

// get returns the entry cached for ceil, or nil, and counts the lookup
// as a hit or a miss.
func (c *ubCache) get(ceil float64) *ubEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.ceil == ceil {
			c.hits++
			copy(c.entries[i:], c.entries[i+1:])
			c.entries[len(c.entries)-1] = e
			return e
		}
	}
	c.misses++
	return nil
}

// put publishes e unless an entry for its ⌈r⌉ is cached already: when
// two engines missed on one ⌈r⌉ at once the first entry stays, and the
// other's values are equal to what it holds or will be filled in.
func (c *ubCache) put(e *ubEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range c.entries {
		if o.ceil == e.ceil {
			return
		}
	}
	if len(c.entries) == ubCacheCap {
		c.entries = append(c.entries[:0], c.entries[1:]...)
	}
	c.entries = append(c.entries, e)
}

// IndexCacheStats counts the lookups of an engine template's τ^upp
// cache since it was built, and what its entries hold. Queries that
// bypass the cache (labels, temporal) count as neither hits nor misses.
type IndexCacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
	// Filled is the number of τ^upp values the entries hold, at most
	// Entries × n.
	Filled int `json:"filled"`
}

// Add returns the field-wise sum of s and o, for reporting several
// pools (one per shard) as one.
func (s IndexCacheStats) Add(o IndexCacheStats) IndexCacheStats {
	return IndexCacheStats{Hits: s.Hits + o.Hits, Misses: s.Misses + o.Misses, Entries: s.Entries + o.Entries, Filled: s.Filled + o.Filled}
}

func (c *ubCache) stats() IndexCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := IndexCacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
	for _, e := range c.entries {
		st.Filled += e.filled()
	}
	return st
}
