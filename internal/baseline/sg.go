package baseline

import (
	"mio/internal/bitmap"
	"mio/internal/data"
	"mio/internal/geom"
	"mio/internal/grid"
	"mio/internal/parallel"
)

// sgCell is a simple-grid cell: posting lists only, no bitsets — SG is
// the state-of-the-art spatial-join competitor (TOUCH-style) optimised
// for the MIO problem, but without BIGrid's bounding machinery. soa is
// the frozen SoA image of postings, built at the end of BuildSG: SG
// scans its whole grid once per object, so every cell repays the
// flattening and the per-posting boxes n times over.
type sgCell struct {
	postings []Posting
	soa      *PostingBlock
}

// SGIndex is the simple grid the SG algorithm builds online: one
// uniform grid with cell width r, so all points within r of a point lie
// in its cell or the 26 adjacent cells.
type SGIndex struct {
	width float64
	cells map[grid.Key]*sgCell
}

// BuildSG builds the simple grid for threshold r. Like the BIGrid
// builder it memoises the last (key, cell) pair, since consecutive
// points of path-like objects usually share a cell.
func BuildSG(ds *data.Dataset, r float64) *SGIndex {
	idx := &SGIndex{width: r, cells: make(map[grid.Key]*sgCell)}
	var lastKey grid.Key
	var lastCell *sgCell
	for i := range ds.Objects {
		for j, p := range ds.Objects[i].Pts {
			k := grid.KeyFor(p, r)
			c := lastCell
			if c == nil || k != lastKey {
				var ok bool
				c, ok = idx.cells[k]
				if !ok {
					c = &sgCell{}
					idx.cells[k] = c
				}
				lastKey, lastCell = k, c
			}
			if n := len(c.postings); n > 0 && int(c.postings[n-1].Obj) == i {
				c.postings[n-1].Pts = append(c.postings[n-1].Pts, p)
				c.postings[n-1].Idx = append(c.postings[n-1].Idx, int32(j))
			} else {
				c.postings = append(c.postings, Posting{
					Obj: int32(i), Pts: []geom.Point{p}, Idx: []int32{int32(j)},
				})
			}
		}
	}
	for _, c := range idx.cells {
		c.soa = NewPostingBlock(c.postings)
	}
	return idx
}

// Cells returns the number of non-empty cells.
func (idx *SGIndex) Cells() int { return len(idx.cells) }

// SizeBytes estimates the grid's memory footprint.
func (idx *SGIndex) SizeBytes() int {
	const entryOverhead = 16 + 8 + 24
	total := 0
	for _, c := range idx.cells {
		total += entryOverhead
		for _, p := range c.postings {
			total += 16 + len(p.Pts)*24 + len(p.Idx)*4
		}
		if c.soa != nil {
			total += c.soa.SizeBytes()
		}
	}
	return total
}

// scoreObject computes τ(o_i) by probing the 27-cell neighbourhood of
// every point, marking found interactions in seen to skip repeats.
func (idx *SGIndex) scoreObject(ds *data.Dataset, i int, r2 float64, seen *bitmap.Scratch) int {
	seen.Reset()
	seen.Set(i)
	var neigh [27]grid.Key
	for _, p := range ds.Objects[i].Pts {
		k := grid.KeyFor(p, idx.width)
		for _, nk := range k.NeighborsAndSelf(neigh[:0]) {
			c := idx.cells[nk]
			if c == nil {
				continue
			}
			soa := c.soa
			for pi := range c.postings {
				obj := int(c.postings[pi].Obj)
				if seen.Test(obj) {
					continue
				}
				// One box comparison rejects a whole posting; postings
				// that survive it are scanned with the batch kernel,
				// which keeps the scalar loop's exit-on-first-hit.
				if soa.Boxes[pi].Dist2To(p) > r2 {
					continue
				}
				xs, ys, zs := soa.Points(pi)
				if geom.AnyWithin2(p.X, p.Y, p.Z, xs, ys, zs, r2) {
					seen.Set(obj)
				}
			}
		}
	}
	return seen.Cardinality() - 1
}

// SGScores builds the simple grid and computes every object's exact
// score with it.
func SGScores(ds *data.Dataset, r float64) []int {
	idx := BuildSG(ds, r)
	n := ds.N()
	scores := make([]int, n)
	seen := bitmap.NewScratch(n)
	r2 := r * r
	for i := 0; i < n; i++ {
		scores[i] = idx.scoreObject(ds, i, r2, seen)
	}
	return scores
}

// SG runs the simple-grid algorithm and returns the k most interactive
// objects.
func SG(ds *data.Dataset, r float64, k int) []Scored {
	return TopKFromScores(SGScores(ds, r), k)
}

// SGParallel parallelises SG's per-object scoring by hash-partitioning
// objects across t cores (§V-C). Skewed data defeats this partition —
// reproducing that is the point of Fig. 9's SG curves.
func SGParallel(ds *data.Dataset, r float64, k, t int) []Scored {
	idx := BuildSG(ds, r)
	n := ds.N()
	scores := make([]int, n)
	r2 := r * r
	parallel.Run(t, func(w int) {
		seen := bitmap.NewScratch(n)
		for i := w; i < n; i += t {
			scores[i] = idx.scoreObject(ds, i, r2, seen)
		}
	})
	return TopKFromScores(scores, k)
}
