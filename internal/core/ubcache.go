package core

import "sync"

// ubCacheCap is how many ⌈r⌉ entries an engine template's τ^upp cache
// holds before it evicts the least recently used one. r is bounded only
// from below, so a client walking ⌈r⌉ would otherwise grow the cache
// without limit; at the cap it holds ubCacheCap × 4n bytes of vectors.
const ubCacheCap = 16

// ubCache memoises Lemma 2's τ^upp vector per ⌈r⌉. τ^upp is a function
// of the large grid alone, and the large grid of a label-free spatial
// query is a function of (dataset, ⌈r⌉): neither the exact r, nor k,
// nor a restrict mask, nor Workers or the LB/UB strategies change it.
// NewEngine creates one cache and clone shares it, so every engine of a
// Pool reuses every other's vectors; Pool.Swap builds a new template,
// and with it an empty cache.
//
// computeUpperBounds is the only reader and writer. Queries that use or
// collect labels bypass the cache (their large grid drops labelled
// points), and so do temporal ones (their grid depends on δ's
// bucketing).
type ubCache struct {
	mu sync.Mutex
	// entries is in recency order, least recently used first.
	entries []ubEntry
	hits    uint64
	misses  uint64
}

// ubEntry is one complete τ^upp vector, keyed by the large-grid width
// ⌈r⌉ as a float64 (an int conversion would fold huge r together). A
// published vector is read-only: every query that hits the entry reads
// the same slice.
type ubEntry struct {
	ceil   float64
	tauUpp []int32
}

// get returns the vector cached for ceil, or nil, and counts the
// lookup as a hit or a miss.
func (c *ubCache) get(ceil float64) []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.ceil == ceil {
			c.hits++
			copy(c.entries[i:], c.entries[i+1:])
			c.entries[len(c.entries)-1] = e
			return e.tauUpp
		}
	}
	c.misses++
	return nil
}

// put publishes a complete vector for ceil. When two engines missed on
// one ⌈r⌉ at once the first vector stays: both are equal.
func (c *ubCache) put(ceil float64, tauUpp []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.ceil == ceil {
			return
		}
	}
	if len(c.entries) == ubCacheCap {
		c.entries = append(c.entries[:0], c.entries[1:]...)
	}
	c.entries = append(c.entries, ubEntry{ceil: ceil, tauUpp: tauUpp})
}

// IndexCacheStats counts the lookups of an engine template's τ^upp
// cache since it was built. Queries that bypass the cache (labels,
// temporal) count as neither hits nor misses.
type IndexCacheStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// Add returns the field-wise sum of s and o, for reporting several
// pools (one per shard) as one.
func (s IndexCacheStats) Add(o IndexCacheStats) IndexCacheStats {
	return IndexCacheStats{Hits: s.Hits + o.Hits, Misses: s.Misses + o.Misses, Entries: s.Entries + o.Entries}
}

func (c *ubCache) stats() IndexCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return IndexCacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}
