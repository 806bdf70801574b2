package grid

// SmallGrid is the lower-bounding grid of a BIGrid (Definition 2),
// built by Build and read-only afterwards: a cell directory with each
// cell's b(c), nothing else.
type SmallGrid struct {
	directory
}

// newSmallGrid run-length encodes the sorted records: a cell per
// distinct (bucket, key), and per cell its distinct objects, which
// ascend because the records of one cell are in point number order.
func newSmallGrid(src *points, sorted []rec) *SmallGrid {
	g := &SmallGrid{directory: newDirectory(countRuns(src, sorted))}
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
		}
	}
	g.finish()
	return g
}

// smallCellBytes is what the grid spends per cell besides b(c): the key
// and the run offset.
const smallCellBytes = 8 + 4 + 4

// SizeBytes returns the memory footprint of the grid: the directory,
// the bucket ranges and the object-id runs.
func (g *SmallGrid) SizeBytes() int {
	return g.Len()*smallCellBytes + g.bucketBytes() + len(g.Objs)*4
}

// UncompressedSizeBytes returns the footprint if every b(c) were a
// dense n-bit bitset instead of an id run, for compression-ratio
// reporting.
func (g *SmallGrid) UncompressedSizeBytes(n int) int {
	return g.Len()*(smallCellBytes+(n+63)/64*8) + g.bucketBytes()
}
