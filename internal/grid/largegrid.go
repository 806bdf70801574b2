package grid

import (
	"sort"
	"sync"
	"sync/atomic"

	"mio/internal/bitmap"
	"mio/internal/geom"
)

// LargeCell is a large-grid cell (Definition 3): an inverted list of
// postings, the membership bitset b(c), and the lazily computed
// adjacency bitset b^adj(c) = OR of b over the cell and its 26
// neighbours. The adjacency bitset stays unset until the upper-bounding
// phase computes it (Algorithm 5 line 9) — never during grid mapping,
// to avoid the cell access cost the paper calls out. It is stored
// behind an atomic pointer so concurrent phases can memoise it without
// locks.
//
// The inverted list is flat: posting p is the points of object Objs[p]
// that fall into the cell, stored at [Off[p], Off[p+1]) of the
// coordinate arrays and of Idx, which holds each point's index within
// its object (the labeling scheme of §III-D addresses points by
// (object, index)). Objects are added in id order, so append order is
// already posting-major and Objs is strictly increasing. The arrays are
// written by Add and MergeFrom only and read-only once construction
// has finished.
type LargeCell struct {
	B   *bitmap.Compressed
	adj atomic.Pointer[bitmap.Compressed]
	// Objs has one entry per posting; Off has len(Objs)+1.
	Objs []int32
	Off  []int32
	// Xs, Ys, Zs and Idx are parallel, one entry per point of the cell.
	Xs, Ys, Zs []float64
	Idx        []int32
}

// Adj returns the memoised b^adj(c), or nil if not yet computed.
func (c *LargeCell) Adj() *bitmap.Compressed { return c.adj.Load() }

// NumPoints returns the total number of points in the cell.
func (c *LargeCell) NumPoints() int { return len(c.Idx) }

// PostingIndex returns the index of obj's posting, or -1. Postings are
// sorted by object id, so lookup is a binary search.
func (c *LargeCell) PostingIndex(obj int) int {
	i := sort.Search(len(c.Objs), func(i int) bool { return int(c.Objs[i]) >= obj })
	if i < len(c.Objs) && int(c.Objs[i]) == obj {
		return i
	}
	return -1
}

// Points returns the coordinate sub-arrays of posting p.
func (c *LargeCell) Points(p int) (xs, ys, zs []float64) {
	lo, hi := c.Off[p], c.Off[p+1]
	return c.Xs[lo:hi], c.Ys[lo:hi], c.Zs[lo:hi]
}

// PointIdx returns, for each point of posting p, its index within its
// object. The slice aliases the cell's storage and must not be written.
func (c *LargeCell) PointIdx(p int) []int32 { return c.Idx[c.Off[p]:c.Off[p+1]:c.Off[p+1]] }

// LargeGrid is the upper-bounding and verification grid of a BIGrid.
type LargeGrid struct {
	width    float64
	nObjects int
	cells    map[Key]*LargeCell
	// scratches pools per-goroutine accumulators for ComputeAdj so the
	// 27-cell unions run without chained compressed merges.
	scratches sync.Pool
	// lastKey/lastCell memoise the most recent Add target: consecutive
	// points of arbor- and trajectory-like objects usually fall into
	// the same cell, skipping the hash lookup.
	lastKey  Key
	lastCell *LargeCell
}

// NewLargeGrid returns an empty large-grid with the given cell width
// over a dataset of nObjects objects.
func NewLargeGrid(width float64, nObjects int) *LargeGrid {
	g := &LargeGrid{width: width, nObjects: nObjects, cells: make(map[Key]*LargeCell)}
	g.scratches.New = func() any { return bitmap.NewScratch(nObjects) }
	return g
}

// Width returns the cell width.
func (g *LargeGrid) Width() float64 { return g.width }

// KeyFor returns the large-grid key of p.
func (g *LargeGrid) KeyFor(p geom.Point) Key { return KeyFor(p, g.width) }

// Add maps point ptIdx of object obj into the grid, creating the cell
// on demand, setting the obj bit and appending to the inverted list
// (Algorithm 3 lines 15-21). Objects must be added in non-decreasing id
// order, which keeps the postings sorted and each one contiguous.
func (g *LargeGrid) Add(obj, ptIdx int, p geom.Point) (Key, *LargeCell) {
	k := g.KeyFor(p)
	c := g.lastCell
	if c == nil || k != g.lastKey {
		var ok bool
		c, ok = g.cells[k]
		if !ok {
			c = &LargeCell{B: bitmap.New(), Off: []int32{0}}
			g.cells[k] = c
		}
		g.lastKey, g.lastCell = k, c
	}
	c.B.Set(obj)
	if n := len(c.Objs); n == 0 || int(c.Objs[n-1]) != obj {
		c.Objs = append(c.Objs, int32(obj))
		c.Off = append(c.Off, int32(len(c.Idx)))
	}
	c.Xs = append(c.Xs, p.X)
	c.Ys = append(c.Ys, p.Y)
	c.Zs = append(c.Zs, p.Z)
	c.Idx = append(c.Idx, int32(ptIdx))
	c.Off[len(c.Objs)]++
	return k, c
}

// Cell returns the cell with the given key, or nil.
func (g *LargeGrid) Cell(k Key) *LargeCell { return g.cells[k] }

// Len returns the number of non-empty cells.
func (g *LargeGrid) Len() int { return len(g.cells) }

// ForEach calls fn for every cell. Iteration order is unspecified.
func (g *LargeGrid) ForEach(fn func(k Key, c *LargeCell)) {
	for k, c := range g.cells {
		fn(k, c)
	}
}

// ComputeAdj computes and memoises b^adj for the cell with key k: the
// OR of b(c') over k and its 26 adjacent cells. fresh reports whether
// this call did the computation (false when it was already memoised or
// another goroutine won the publish race). Safe for concurrent use
// once grid construction has finished.
func (g *LargeGrid) ComputeAdj(k Key) (adj *bitmap.Compressed, fresh bool) {
	c := g.cells[k]
	if c == nil {
		return nil, false
	}
	if a := c.adj.Load(); a != nil {
		return a, false
	}
	var neigh [27]Key
	keys := k.NeighborsAndSelf(neigh[:0])
	s := g.scratches.Get().(*bitmap.Scratch)
	s.Reset()
	for _, nk := range keys {
		if nc := g.cells[nk]; nc != nil {
			s.OrCompressed(nc.B)
		}
	}
	a := s.ToCompressed()
	g.scratches.Put(s)
	if c.adj.CompareAndSwap(nil, a) {
		return a, true
	}
	return c.adj.Load(), false
}

// MergeFrom merges other into g: bitsets are OR-ed and the flat posting
// arrays concatenated, other's offsets shifted past g's points. Merges
// must be applied in ascending object-range order (the parallel grid
// builder partitions objects into contiguous ranges) so postings stay
// sorted by object id. Adjacency bitsets must not have been computed
// yet on either grid.
func (g *LargeGrid) MergeFrom(other *LargeGrid) {
	for k, oc := range other.cells {
		c, ok := g.cells[k]
		if !ok {
			g.cells[k] = oc
			continue
		}
		c.B = bitmap.Or(c.B, oc.B)
		base := int32(len(c.Idx))
		c.Objs = append(c.Objs, oc.Objs...)
		for _, off := range oc.Off[1:] {
			c.Off = append(c.Off, base+off)
		}
		c.Xs = append(c.Xs, oc.Xs...)
		c.Ys = append(c.Ys, oc.Ys...)
		c.Zs = append(c.Zs, oc.Zs...)
		c.Idx = append(c.Idx, oc.Idx...)
	}
}

// SizeBytes estimates the memory footprint of the grid: bitsets,
// adjacency bitsets, the flat posting arrays and per-entry map overhead.
func (g *LargeGrid) SizeBytes() int {
	const entryOverhead = 16 + 8 + /* cell: two pointers, six slice headers */ 160
	total := 0
	for _, c := range g.cells {
		total += entryOverhead + c.B.SizeBytes()
		if a := c.adj.Load(); a != nil {
			total += a.SizeBytes()
		}
		total += (len(c.Objs)+len(c.Off)+len(c.Idx))*4 + len(c.Idx)*24
	}
	return total
}

// ForEachCard calls fn with each cell's object cardinality (diagnostic).
func (g *LargeGrid) ForEachCard(fn func(card int)) {
	for _, c := range g.cells {
		fn(c.B.Cardinality())
	}
}

// ComputeAdjRadius computes (without memoising) the union of b(c')
// over every cell within Chebyshev distance radius of k. radius 1
// matches ComputeAdj; larger radii implement the widened
// neighbourhoods an offline grid built for r' < r must visit to stay
// correct (Appendix A). It returns the union and the number of cell
// lookups performed.
func (g *LargeGrid) ComputeAdjRadius(k Key, radius int32) (*bitmap.Compressed, int) {
	keys := k.NeighborhoodRadius(nil, radius)
	s := g.scratches.Get().(*bitmap.Scratch)
	s.Reset()
	for _, nk := range keys {
		if nc := g.cells[nk]; nc != nil {
			s.OrCompressed(nc.B)
		}
	}
	a := s.ToCompressed()
	g.scratches.Put(s)
	return a, len(keys)
}
