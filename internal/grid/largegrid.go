package grid

import (
	"math"
	"sync"
	"sync/atomic"

	"mio/internal/bitmap"
	"mio/internal/data"
)

// LargeGrid is the upper-bounding and verification grid of a BIGrid
// (Definition 3), built by Build and read-only afterwards except for
// the memoised adjacency bitsets. A cell is its index c in the sorted
// key directory; everything a cell owns is a range of grid-wide arrays:
//
//   - its inverted list is postings [CellOff[c], CellOff[c+1]), one per
//     object of b(c): posting p belongs to object Objs[p];
//   - posting p holds the points of that object that fall into the
//     cell, at [Off[p], Off[p+1]) of Xs, Ys, Zs and of Idx, each point's
//     index within its object (the labeling scheme of §III-D addresses
//     points by (object, index)), in index order.
//
// b^adj(c), the OR of b over the cell's neighbourhood (Neighbors), stays
// unset until the upper-bounding phase asks for it (Algorithm 5 line
// 9) — never during grid mapping, to avoid the cell access cost the
// paper calls out. It is published through an atomic pointer so
// concurrent phases can memoise it without locks.
//
// Everything but the coordinates lives behind one pointer, so copies
// of a grid share the directory, the postings and the b^adj memo: Lean
// drops the coordinates of a grid that is kept for later queries, and
// Gather gives a query a copy with them.
type LargeGrid struct {
	*postings
	// Xs, Ys and Zs are parallel to Idx, one entry per mapped point;
	// nil on a grid Lean returned.
	Xs, Ys, Zs []float64
}

// postings is the part of a large grid its copies share.
type postings struct {
	directory
	// halo is how many buckets either side of a cell's own its
	// neighbourhood spans: 0 in a spatial grid.
	halo int32

	Off []int32 // len(Objs)+1
	Idx []int32 // one entry per mapped point

	adj      []atomic.Pointer[bitmap.Compressed]
	adjBytes atomic.Int64
	// scratches pools per-goroutine accumulators for the adjacency
	// unions. It is a pointer because package sync keeps every Pool it
	// has seen in a global list until the second GC after: embedded in
	// the grid, the Pool would keep the whole grid reachable that long
	// after its query was over.
	scratches *sync.Pool
}

// newLargeGrid run-length encodes the sorted records into the flat
// arrays. Within a cell the records are in point number order, so each
// object's points are contiguous and the objects ascend.
func newLargeGrid(halo int32, src *points, sorted []rec) *LargeGrid {
	buckets, cells, posts := countRuns(src, sorted)
	m, nObjects := len(sorted), len(src.start)-1
	g := &LargeGrid{postings: &postings{
		directory: newDirectory(buckets, cells, posts),
		halo:      halo,
		Off:       make([]int32, posts+1),
		Idx:       make([]int32, m),
		adj:       make([]atomic.Pointer[bitmap.Compressed], cells),
		scratches: &sync.Pool{New: func() any { return bitmap.NewScratch(nObjects) }},
	}}
	g.Xs, g.Ys, g.Zs = newCoords(m)
	c, p := -1, -1
	for i, r := range sorted {
		obj := src.objOf[r.ord]
		newCell := i == 0 || !src.sameCell(r, sorted[i-1])
		if newCell {
			c++
			g.open(c, r.hi, r.lo, src.bucketOf(r.ord))
			g.CellOff[c] = int32(p + 1)
		}
		if newCell || obj != g.Objs[p] {
			p++
			g.Objs[p] = obj
			g.Off[p] = int32(i)
		}
		pt := int32(r.ord) - src.start[obj]
		q := src.ds.Objects[obj].Pts[pt]
		g.Xs[i], g.Ys[i], g.Zs[i] = q.X, q.Y, q.Z
		g.Idx[i] = pt
	}
	g.finish()
	g.Off[posts] = int32(m)
	return g
}

// newCoords returns three coordinate arrays of m entries each.
func newCoords(m int) (xs, ys, zs []float64) {
	return make([]float64, m), make([]float64, m), make([]float64, m)
}

// Lean returns a copy of g without the coordinates: the directory, the
// postings and the b^adj memo, shared with g. Points must not be called
// on it; Gather restores them.
func (g *LargeGrid) Lean() *LargeGrid { return &LargeGrid{postings: g.postings} }

// Gather returns a copy of g, which may be lean, with the coordinates of
// its points read from ds, the dataset it was built from, through Objs
// and Idx. It shares g's directory, postings and b^adj memo.
func (g *LargeGrid) Gather(ds *data.Dataset) *LargeGrid {
	c := &LargeGrid{postings: g.postings}
	c.Xs, c.Ys, c.Zs = newCoords(len(g.Idx))
	for p, obj := range g.Objs {
		pts, idx := ds.Objects[obj].Pts, g.PointIdx(p)
		xs, ys, zs := c.Points(p)
		for i, k := range idx[:len(xs)] {
			q := &pts[k]
			xs[i], ys[i], zs[i] = q.X, q.Y, q.Z
		}
	}
	return c
}

// Points returns the coordinate sub-arrays of posting p.
func (g *LargeGrid) Points(p int) (xs, ys, zs []float64) {
	lo, hi := g.Off[p], g.Off[p+1]
	return g.Xs[lo:hi], g.Ys[lo:hi], g.Zs[lo:hi]
}

// PointIdx returns, for each point of posting p, its index within its
// object. The slice aliases the grid's storage and must not be written.
func (g *LargeGrid) PointIdx(p int) []int32 { return g.Idx[g.Off[p]:g.Off[p+1]:g.Off[p+1]] }

// MaxNeighbors is the size of the largest neighbourhood: 27 cells in
// each of three buckets (halo 1).
const MaxNeighbors = 3 * 27

// Neighbors fills out with the neighbourhood of cell c and returns its
// size, (2·halo+1)·27, with -1 where the directory has no such cell.
// Block dt+halo of 27 slots is bucket Bucket(c)+dt, in
// Key.NeighborsAndSelf order of c's key (the key itself first): a
// spatial grid's neighbourhood is c and its 26 adjacent cells.
func (g *LargeGrid) Neighbors(c int, out *[MaxNeighbors]int32) int {
	n := int(2*g.halo+1) * 27
	for i := range out[:n] {
		out[i] = -1
	}
	g.columns(g.Bucket(c), g.Key(c), 1, g.halo, func(dt, dx, dy int32, lo, hi int) {
		for m := lo; m < hi; m++ {
			// Slot 0 of a block is c's key; the others keep (dx, dy, dz)
			// order with the centre taken out.
			slot := (dx+1)*9 + (dy+1)*3 + int32(g.lo[m]-g.lo[c]) + 1
			switch {
			case slot == 13:
				slot = 0
			case slot < 13:
				slot++
			}
			out[(dt+g.halo)*27+slot] = int32(m)
		}
	})
	return n
}

// NeighborhoodPostings returns S(c) for every cell c: the number of
// postings in c's neighbourhood (Neighbors), Σ |b(c')| over its cells,
// an upper bound on |b^adj(c)| read from CellOff alone. Neighbourhoods
// are symmetric, so it visits each pair of neighbouring columns (runs
// of one bucket's cells with one (X, Y)) once and adds to both: a
// column with itself and with the next one at (X, Y+1), then one merge
// pass over the column list per pair of bucket and X offsets that
// points up, (0, +1) and (dt, −1..+1) for 0 < dt ≤ halo
// (directory.addColumns). It builds no bitmap.
func (g *LargeGrid) NeighborhoodPostings() []int32 {
	s := make([]int32, g.Len())
	start, hi, bucket := g.columnRuns()
	for b := range bucket[:len(bucket)-1] {
		for j := bucket[b]; j < bucket[b+1]; j++ {
			g.addWindow(s, int(start[j]), int(start[j+1]), int(start[j]), int(start[j+1]))
			if j+1 < bucket[b+1] && uint32(hi[j]) < math.MaxUint32 && hi[j+1] == hi[j]+1 {
				g.addPair(s, start, j, j+1)
			}
		}
	}
	g.addColumns(s, start, hi, bucket, 0, 1)
	for dt := int32(1); dt <= g.halo; dt++ {
		for dx := int64(-1); dx <= 1; dx++ {
			g.addColumns(s, start, hi, bucket, dt, dx)
		}
	}
	return s
}

// Adj returns the memoised b^adj(c), or nil if not yet computed.
func (g *LargeGrid) Adj(c int) *bitmap.Compressed { return g.adj[c].Load() }

// ComputeAdj computes and memoises b^adj for cell c: the OR of b(c')
// over c's neighbourhood, c and its 26 adjacent cells in its own bucket
// and in the halo buckets either side. fresh reports whether this call
// did the computation (false when it was already memoised or another
// goroutine won the publish race). Safe for concurrent use.
func (g *LargeGrid) ComputeAdj(c int) (adj *bitmap.Compressed, fresh bool) {
	if a := g.adj[c].Load(); a != nil {
		return a, false
	}
	a := g.union(g.Bucket(c), g.Key(c), 1, g.halo)
	if g.adj[c].CompareAndSwap(nil, a) {
		g.adjBytes.Add(int64(adjHeaderBytes + a.SizeBytes()))
		return a, true
	}
	return g.adj[c].Load(), false
}

// ComputeAdjRadius computes (without memoising) the union of b(c')
// over every cell of bucket 0 — all of a spatial grid — within
// Chebyshev distance radius of k, which need not be a cell of the grid.
// radius 1 matches ComputeAdj on a spatial grid; larger radii implement
// the widened neighbourhoods an offline grid built for r' < r must
// visit to stay correct (Appendix A).
func (g *LargeGrid) ComputeAdjRadius(k Key, radius int32) *bitmap.Compressed {
	return g.union(0, k, radius, 0)
}

// union ORs b(c') over the cells columns visits into a pooled scratch.
func (g *LargeGrid) union(b int32, k Key, radius, halo int32) *bitmap.Compressed {
	s := g.scratches.Get().(*bitmap.Scratch)
	s.Reset()
	g.columns(b, k, radius, halo, func(_, _, _ int32, lo, hi int) {
		// Adjacent cells' object runs are adjacent in Objs.
		s.OrIDs(g.Objs[g.CellOff[lo]:g.CellOff[hi]])
	})
	a := s.ToCompressed()
	g.scratches.Put(s)
	return a
}

// SizeBytes returns the memory footprint of the grid: the directory,
// the bucket ranges, the flat posting arrays, the coordinates unless the
// grid is lean, and the adjacency bitsets memoised so far (AdjBytes).
func (g *LargeGrid) SizeBytes() int {
	const perCell = 8 + 4 + /* CellOff */ 4 + /* adj pointer */ 8
	return g.Len()*perCell + g.bucketBytes() + len(g.Objs)*(4+4) + len(g.Idx)*4 + len(g.Xs)*24 + g.AdjBytes()
}

// adjHeaderBytes is what a memoised b^adj occupies beside its words:
// the bitmap.Compressed itself, a slice header and a cardinality.
const adjHeaderBytes = 32

// AdjBytes returns what the adjacency bitsets memoised so far occupy,
// their words and their headers. Which cells have one depends on the
// queries that ran on the grid, not on the grid alone.
func (g *LargeGrid) AdjBytes() int { return int(g.adjBytes.Load()) }
