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

	// The neighbour table. Column j, the run of one bucket's cells with
	// one (X, Y), is cells [colStart[j], colStart[j+1]); cell c is in
	// column cellCol[c]. Entry j·3·(2·halo+1) + (dt+halo)·3 + dx+1 names
	// column j's neighbour columns at (X+dx, Y−1..Y+1) in the bucket dt
	// after its own: the nbrLen[e] ≤ 3 columns from nbrFirst[e], which
	// are adjacent in the column list. Neighbors and ComputeAdj read a
	// neighbourhood off it (around) instead of searching the directory,
	// and NeighborhoodPostings its pairs of neighbouring columns.
	colStart []int32 // len columns+1
	cellCol  []int32 // len Len()
	nbrFirst []int32
	nbrLen   []uint8

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
	g.link()
	return g
}

// link builds the neighbour table: the column runs, then every entry
// by merges of the column list against itself (linkBuckets).
func (g *postings) link() {
	g.cellCol = make([]int32, g.Len())
	g.colStart = make([]int32, 0, g.Len()+1)
	// hi[j] is the (X, Y) field of column j's cells, and bucketCols[i]
	// bucket i's first column.
	hi := make([]uint64, 0, g.Len())
	bucketCols := make([]int32, 0, len(g.bucketID)+1)
	for i, b := range g.bucketOff[:len(g.bucketID)] {
		bucketCols = append(bucketCols, int32(len(hi)))
		for c := int(b); c < int(g.bucketOff[i+1]); c++ {
			if c == int(b) || g.hi[c] != g.hi[c-1] {
				g.colStart = append(g.colStart, int32(c))
				hi = append(hi, g.hi[c])
			}
			g.cellCol[c] = int32(len(hi) - 1)
		}
	}
	g.colStart = append(g.colStart, int32(g.Len()))
	bucketCols = append(bucketCols, int32(len(hi)))
	g.nbrFirst, g.nbrLen = make([]int32, len(hi)*g.entries()), make([]uint8, len(hi)*g.entries())
	for dt := int32(0); dt <= g.halo; dt++ {
		g.linkBuckets(hi, bucketCols, dt)
	}
}

// entries is the number of table entries per column.
func (g *postings) entries() int { return 3 * int(2*g.halo+1) }

// linkBuckets fills the table entries of bucket offset dt ≥ 0 and
// their mirror images at −dt: it pairs the columns of each bucket with
// those of the bucket dt after it. Shifting every key by one offset
// keeps the directory order, so per X offset the first target column
// only moves forward as the source column does: a merge of the column
// list against itself, with no search. At dt = 0 the X offset −1 is the
// mirror of +1, and offset 0 is a column's own list neighbours. Keys
// are compared in the offset-binary form they are stored in, where
// adding an offset is adding it to the field; a coordinate that leaves
// the field's range names no cell.
func (g *postings) linkBuckets(hi []uint64, bucketCols []int32, dt int32) {
	w, e := g.entries(), int(dt+g.halo)*3
	tb := 0
	for sb, b := range g.bucketID {
		t := int64(b) + int64(dt)
		for tb < len(g.bucketID) && int64(g.bucketID[tb]) < t {
			tb++
		}
		if tb == len(g.bucketID) {
			return
		}
		if int64(g.bucketID[tb]) != t {
			continue
		}
		from, end := bucketCols[tb], bucketCols[tb+1]
		left, mid, right := from, from, from
		for j := bucketCols[sb]; j < bucketCols[sb+1]; j++ {
			x, y := hi[j]>>32, uint64(uint32(hi[j]))
			yFirst, yLast := y-min(y, 1), y+min(math.MaxUint32-y, 1)
			if dt > 0 && x > 0 {
				left = g.linkColumn(hi[:end], left, j, e, (x-1)<<32|yFirst, (x-1)<<32|yLast)
			}
			if dt == 0 {
				// The own bucket's columns at (X, Y±1) are j's
				// neighbours in the list.
				p, q := j, j+1
				if p > from && y > 0 && hi[p-1] == hi[j]-1 {
					p--
				}
				if q < end && y < math.MaxUint32 && hi[q] == hi[j]+1 {
					q++
				}
				g.nbrFirst[int(j)*w+e+1], g.nbrLen[int(j)*w+e+1] = p, uint8(q-p)
			} else {
				mid = g.linkColumn(hi[:end], mid, j, e+1, x<<32|yFirst, x<<32|yLast)
			}
			if x < math.MaxUint32 {
				right = g.linkColumn(hi[:end], right, j, e+2, (x+1)<<32|yFirst, (x+1)<<32|yLast)
			}
		}
	}
}

// linkColumn sets entry i of column j to the columns from p on whose
// field is in [first, last], and fills their entries that point back
// at j, and returns the first column at or after first. Column q is in
// column j's entry i, (dt, dx), exactly when j is in q's entry w−1−i,
// (−dt, −dx). The columns that list q are adjacent, and the merge meets
// them in ascending order, so the one that finds n listed in q's entry
// is n after the first.
func (g *postings) linkColumn(hi []uint64, p, j int32, i int, first, last uint64) int32 {
	w := g.entries()
	for int(p) < len(hi) && hi[p] < first {
		p++
	}
	q := p
	for ; int(q) < len(hi) && hi[q] <= last; q++ {
		back := int(q)*w + w - 1 - i
		n := g.nbrLen[back]
		g.nbrFirst[back], g.nbrLen[back] = j-int32(n), n+1
	}
	g.nbrFirst[int(j)*w+i], g.nbrLen[int(j)*w+i] = p, uint8(q-p)
	return p
}

// around calls fn for every column of cell c's neighbourhood, bucket by
// bucket, that holds a cell whose Z is within 1 of c's: its bucket, X
// and Y offsets from c and the range [lo, hi) of those cells, found in
// the column alone.
func (g *postings) around(c int, fn func(dt, dx, dy int32, lo, hi int)) {
	y, z := uint32(g.hi[c]), g.lo[c]
	first, last := z-min(z, 1), z+min(math.MaxUint32-z, 1)
	w := g.entries()
	e := int(g.cellCol[c]) * w
	for i := 0; i < w; i++ {
		q := g.nbrFirst[e+i]
		for n := g.nbrLen[e+i]; n > 0; n-- {
			from, to := int(g.colStart[q]), int(g.colStart[q+1])
			lo := g.zFirst(from, to, first)
			end := lo
			for end < to && g.lo[end] <= last {
				end++
			}
			if lo < end {
				fn(int32(i/3)-g.halo, int32(i%3)-1, int32(uint32(g.hi[from])-y), lo, end)
			}
			q++
		}
	}
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
	g.around(c, func(dt, dx, dy int32, lo, hi int) {
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

// zFirst returns the first cell of the column [from, to) whose Z is at
// least z, or to. Z ascends strictly along a column, so the cell
// z − Z(from) after from has a Z of at least z: the answer is no
// later, and is that cell when the column has no Z gap below z, as
// dense data's columns mostly have not.
func (d *directory) zFirst(from, to int, z uint32) int {
	if d.lo[from] >= z {
		return from
	}
	l, r := from+1, from+int(min(uint64(z-d.lo[from]), uint64(to-from)))
	if d.lo[r-1] < z {
		return r
	}
	// The answer is in [l, r−1].
	r--
	for l < r {
		m := int(uint(l+r) >> 1)
		if d.lo[m] < z {
			l = m + 1
		} else {
			r = m
		}
	}
	return l
}

// NeighborhoodPostings returns S(c) for every cell c: the number of
// postings in c's neighbourhood (Neighbors), Σ |b(c')| over its cells,
// an upper bound on |b^adj(c)| read from CellOff alone. Neighbourhoods
// are symmetric, so it visits each pair of neighbouring columns once,
// from the lower of the two in the neighbour table, and adds to both;
// a column's pairs with itself are its own Z windows. It builds no
// bitmap.
func (g *LargeGrid) NeighborhoodPostings() []int32 {
	s := make([]int32, g.Len())
	w := g.entries()
	for j := int32(0); j < int32(len(g.colStart)-1); j++ {
		from, to := int(g.colStart[j]), int(g.colStart[j+1])
		g.addWindow(s, from, to, from, to)
		for e := int(j) * w; e < int(j+1)*w; e++ {
			for q := g.nbrFirst[e]; q < g.nbrFirst[e]+int32(g.nbrLen[e]); q++ {
				if q > j {
					g.addPair(s, g.colStart, j, q)
				}
			}
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
	s := g.scratch()
	g.around(c, func(_, _, _ int32, lo, hi int) { g.orCells(s, lo, hi) })
	a := g.compress(s)
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
// visit to stay correct (Appendix A). It searches the directory for
// each column (directory.columns).
func (g *LargeGrid) ComputeAdjRadius(k Key, radius int32) *bitmap.Compressed {
	s := g.scratch()
	g.columns(0, k, radius, 0, func(_, _, _ int32, lo, hi int) { g.orCells(s, lo, hi) })
	return g.compress(s)
}

// scratch returns an empty pooled accumulator for a union.
func (g *LargeGrid) scratch() *bitmap.Scratch {
	s := g.scratches.Get().(*bitmap.Scratch)
	s.Reset()
	return s
}

// orCells ORs b(c') over the cells [lo, hi) into s: adjacent cells'
// object runs are adjacent in Objs.
func (g *LargeGrid) orCells(s *bitmap.Scratch, lo, hi int) {
	s.OrIDs(g.Objs[g.CellOff[lo]:g.CellOff[hi]])
}

// compress returns the union s holds and pools s again.
func (g *LargeGrid) compress(s *bitmap.Scratch) *bitmap.Compressed {
	a := s.ToCompressed()
	g.scratches.Put(s)
	return a
}

// SizeBytes returns the memory footprint of the grid: the directory,
// the bucket ranges, the neighbour table, the flat posting arrays, the
// coordinates unless the grid is lean, 24 bytes a point, and the
// adjacency bitsets memoised so far (AdjBytes).
func (g *LargeGrid) SizeBytes() int {
	const perCell = 8 + 4 + /* CellOff */ 4 + /* adj pointer */ 8 + /* cellCol */ 4
	table := len(g.colStart)*4 + len(g.nbrFirst)*(4+1)
	return g.Len()*perCell + g.bucketBytes() + table + len(g.Objs)*(4+4) + len(g.Idx)*4 + len(g.Xs)*24 + g.AdjBytes()
}

// adjHeaderBytes is what a memoised b^adj occupies beside its words:
// the bitmap.Compressed itself, a slice header and a cardinality.
const adjHeaderBytes = 32

// AdjBytes returns what the adjacency bitsets memoised so far occupy,
// their words and their headers. Which cells have one depends on the
// queries that ran on the grid, not on the grid alone.
func (g *LargeGrid) AdjBytes() int { return int(g.adjBytes.Load()) }
