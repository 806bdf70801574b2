package grid

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"mio/internal/data"
	"mio/internal/parallel"
)

// rec is one sort record: a cell key packed so that unsigned order on
// (hi, lo) equals Key.Less, and the point it came from. All 96 key bits
// are kept, so the accepted (dataset, r) domain is KeyFor's. A bucketed
// build's fourth key component is read through ord, not stored.
type rec struct {
	hi  uint64 // X<<32 | Y, each offset-binary
	lo  uint32 // Z, offset-binary
	ord uint32 // the point's number in (object, point index) order
}

const signBit = 1 << 31

func pack(k Key) (hi uint64, lo uint32) {
	return uint64(uint32(k.X)^signBit)<<32 | uint64(uint32(k.Y)^signBit), uint32(k.Z) ^ signBit
}

func unpack(hi uint64, lo uint32) Key {
	return Key{X: int32(uint32(hi>>32) ^ signBit), Y: int32(uint32(hi) ^ signBit), Z: int32(lo ^ signBit)}
}

// Points numbers the points of a dataset object-major: each object's
// first point number, the object of each point number and each
// object's point count. Every grid of the dataset numbers its points
// so, and the numbering depends on the dataset alone, so an engine
// makes it once (NewPoints) and passes it to every Build.
type Points struct {
	ds      *data.Dataset
	start   []int32 // len n+1
	objOf   []int32 // len start[n]
	weights []int   // len n
}

// NewPoints numbers the points of ds.
func NewPoints(ds *data.Dataset) *Points {
	n := ds.N()
	p := &Points{ds: ds, start: make([]int32, n+1), weights: make([]int, n)}
	for i := range ds.Objects {
		p.weights[i] = len(ds.Objects[i].Pts)
		p.start[i+1] = p.start[i] + int32(p.weights[i])
	}
	p.objOf = make([]int32, p.start[n])
	for i := range ds.Objects {
		for g := p.start[i]; g < p.start[i+1]; g++ {
			p.objOf[g] = int32(i)
		}
	}
	return p
}

// points is what every grid of one Build shares: the numbering and, in
// a bucketed build, the time bucket of each point number.
type points struct {
	*Points
	bucket []int32 // len start[n], or nil: every point in bucket 0
}

func (src *points) bucketOf(ord uint32) int32 {
	if src.bucket == nil {
		return 0
	}
	return src.bucket[ord]
}

// sameCell reports whether two records fall into one cell: one key in
// one bucket.
func (src *points) sameCell(a, b rec) bool {
	return a.hi == b.hi && a.lo == b.lo && (src.bucket == nil || src.bucket[a.ord] == src.bucket[b.ord])
}

// Build is GRID-MAPPING (Algorithm 3) by sort and scan: it maps the
// points of pts's dataset into a large grid of cell width largeWidth
// and a small grid of cell width smallWidth, which both see the same
// points. A width of 0 skips that grid (it is nil): a caller that
// holds what it needs of the large grid of this width maps only the
// small grid of its exact threshold, and builds the large grid alone
// when it must read it. Grid by grid, every point is quantised as
// KeyFor does, the (key, point number) records are radix-sorted, and
// the sorted stream is run-length encoded into the grid's flat arrays;
// the two record buffers are shared by both grids. The small grid
// holds each cell's objects and nothing per point, so its sweep keeps
// one record per run of an object's points in one cell. The large grid
// links every column of cells to its neighbour columns
// (postings.link).
//
// bucket, when non-nil, is the time axis of Appendix B: one bucket id
// per point number (object-major, as the points are numbered), the most
// significant component of every cell key, so each bucket's cells are
// one contiguous directory range. halo, 0 or 1, is how many buckets
// either side of a cell's own its large-grid neighbourhood spans
// (Neighbors, ComputeAdj). A nil bucket puts every point in bucket 0
// and wants halo 0: the spatial grids.
//
// keep, when non-nil, filters the points (the WITH-LABEL variant maps
// only points whose label is not 0**) and must answer the same every
// time it is asked. stop, when non-nil, is polled every 128 objects of
// the first grid's sweep, the large grid's or, when it is skipped, the
// small grid's; once it reports true the sweep ends, the grids
// hold only what was mapped so far, and complete is false. With
// workers > 1 the quantising sweeps are split over contiguous,
// point-count-balanced object ranges; the sorts are not.
//
// smallRecs, when non-nil, is the most records a small sweep at this
// large width kept. A small grid's sweep keeps a share of the points
// that depends on the dataset and the width (a quarter to a third on
// Neuron-2, nearly all on Bird-2), so a build without the large grid
// reserves its records by it, or for every point while it is 0; every
// small sweep raises it (a hint only, so two racing builds may leave
// the lesser). A build of both grids fills the large grid's buffer in
// place and needs none.
//
// The dataset must hold at most math.MaxInt32 points: point numbers and
// posting offsets are int32, and a larger dataset would wrap them
// silently.
func Build(pts *Points, largeWidth, smallWidth float64, bucket []int32, halo int32, workers int, keep func(obj, pt int) bool, stop func() bool, smallRecs *atomic.Int64) (large *LargeGrid, small *SmallGrid, complete bool) {
	src := points{Points: pts, bucket: bucket}
	ranges := parallel.Ranges(pts.weights, workers)
	var recs, tmp []rec
	complete = true
	// sorted quantises at width into bufs, one per range, and sorts;
	// only the first sweep polls stop, and ranges then end where it
	// stopped. The small grid's sweep drops an object's repeated cells
	// (quantise), so tmp, sized by the first sweep, may be longer than
	// its records.
	sorted := func(width float64, distinct bool, bufs [][]rec) []rec {
		ok := src.quantise(bufs, width, ranges, distinct, keep, stop)
		complete, stop = complete && ok, nil
		a := join(bufs, recs)
		if tmp == nil {
			tmp = make([]rec, len(a))
		}
		return src.sortRecs(a, tmp[:len(a)])
	}
	if largeWidth != 0 {
		recs = make([]rec, len(src.objOf))
		large = newLargeGrid(halo, &src, sorted(largeWidth, false, src.windows(recs, ranges)))
	}
	if smallWidth != 0 {
		var bufs [][]rec
		if recs != nil {
			bufs = src.windows(recs, ranges)
		} else {
			hint := int64(0)
			if smallRecs != nil {
				hint = smallRecs.Load()
			}
			bufs = src.reserve(ranges, hint)
		}
		a := sorted(smallWidth, true, bufs)
		small = newSmallGrid(&src, a)
		if m := int64(len(a)); smallRecs != nil && m > smallRecs.Load() {
			smallRecs.Store(m)
		}
	}
	return large, small, complete
}

// quantise appends one record per kept point of each object range to
// that range's buffer, in point number order. distinct drops a point
// whose cell (key and bucket) is that of the object's previous record:
// a grid that holds only b(c), the small grid, sees the same (cell,
// object) runs without it. One worker per range polls stop every 128
// objects; a range cut short is truncated in place and complete is
// false.
func (src *points) quantise(bufs [][]rec, width float64, ranges [][2]int, distinct bool, keep func(obj, pt int) bool, stop func() bool) (complete bool) {
	var broke atomic.Bool
	parallel.Run(len(ranges), func(w int) {
		buf := bufs[w]
		for i := ranges[w][0]; i < ranges[w][1]; i++ {
			if i&127 == 127 && stop != nil && stop() {
				broke.Store(true)
				ranges[w][1] = i
				break
			}
			g, objFirst := int(src.start[i]), len(buf)
			for j, p := range src.ds.Objects[i].Pts {
				if keep != nil && !keep(i, j) {
					continue
				}
				r := rec{ord: uint32(g + j)}
				r.hi, r.lo = pack(KeyFor(p, width))
				if distinct && len(buf) > objFirst && src.sameCell(r, buf[len(buf)-1]) {
					continue
				}
				buf = append(buf, r)
			}
		}
		bufs[w] = buf
	})
	return !broke.Load()
}

// windows returns an empty buffer per range over recs, from the
// range's first point number on, with room for every one of its
// points: quantise fills them in place.
func (src *points) windows(recs []rec, ranges [][2]int) [][]rec {
	bufs := make([][]rec, len(ranges))
	for w, rg := range ranges {
		first, last := src.start[rg[0]], src.start[rg[1]]
		bufs[w] = recs[first:first:last]
	}
	return bufs
}

// reserve returns an empty buffer per range with room for its share of
// hint records and an eighth more, or for all of its points when there
// is no hint; a buffer that fills grows by append.
func (src *points) reserve(ranges [][2]int, hint int64) [][]rec {
	n := int64(len(src.objOf))
	bufs := make([][]rec, len(ranges))
	for w, rg := range ranges {
		pts := int64(src.start[rg[1]] - src.start[rg[0]])
		room := pts
		if hint > 0 {
			share := hint * pts / n
			room = min(pts, share+share/8+1)
		}
		bufs[w] = make([]rec, 0, room)
	}
	return bufs
}

// join returns the ranges' records as one slice in range order: the
// one buffer as it is, else packed into dst (in place when the buffers
// are windows of dst) or, when dst is nil, into a new slice.
func join(bufs [][]rec, dst []rec) []rec {
	if len(bufs) == 1 {
		return bufs[0]
	}
	if dst == nil {
		m := 0
		for _, buf := range bufs {
			m += len(buf)
		}
		dst = make([]rec, m)
	}
	m := 0
	for _, buf := range bufs {
		m += copy(dst[m:], buf)
	}
	return dst[:m]
}

// field returns key field f of the record, least significant first: Z,
// Y, X and, in a bucketed build, the bucket, offset-binary.
func (src *points) field(r rec, f int) uint32 {
	switch f {
	case 0:
		return r.lo
	case 1:
		return uint32(r.hi)
	case 2:
		return uint32(r.hi >> 32)
	}
	return uint32(src.bucket[r.ord]) ^ signBit
}

// sortRecs sorts a by (bucket, hi, lo) with a stable LSD radix sort over
// 8-bit digits and returns the slice holding the result, a or tmp.
// Digits are taken from each key field's offset from its minimum, so
// only the bytes the field's range spans cost a pass: a planar dataset
// pays nothing for Z, a spatial build has no bucket field, and cell
// coordinates straddling zero cost no more than positive ones.
// Stability keeps the records of one cell in point number order, which
// is object-major. A spatial build takes sortPacked's fewer passes when
// its fields fit one 64-bit key.
func (src *points) sortRecs(a, tmp []rec) []rec {
	if len(a) < 2 {
		return a
	}
	if src.bucket == nil {
		if sorted, ok := sortPacked(a, tmp); ok {
			return sorted
		}
	}
	fields := 3
	if src.bucket != nil {
		fields = 4
	}
	var minF, maxF [4]uint32
	for f := 0; f < fields; f++ {
		minF[f], maxF[f] = math.MaxUint32, 0
		for _, r := range a {
			minF[f] = min(minF[f], src.field(r, f))
			maxF[f] = max(maxF[f], src.field(r, f))
		}
	}
	for f := 0; f < fields; f++ {
		base, span := minF[f], maxF[f]-minF[f]
		for shift := uint(0); shift < 32 && span>>shift != 0; shift += 8 {
			var next [256]int
			for _, r := range a {
				next[(src.field(r, f)-base)>>shift&0xff]++
			}
			pos := 0
			for d, c := range next {
				next[d] = pos
				pos += c
			}
			for _, r := range a {
				d := (src.field(r, f) - base) >> shift & 0xff
				tmp[next[d]] = r
				next[d]++
			}
			a, tmp = tmp, a
		}
	}
	return a
}

// sortPacked sorts spatial records as sortRecs does when the spans of
// their X, Y and Z fields fit 64 bits together, as they do unless cells
// are tiny against the extent, and reports whether they did. Each
// record's hi is replaced by one key of those bits, Z least
// significant, the key is sorted in passes of at most 11 bits, and hi
// is restored: fewer passes than one per byte of each field.
func sortPacked(a, tmp []rec) ([]rec, bool) {
	minX, minY, minZ := uint32(math.MaxUint32), uint32(math.MaxUint32), uint32(math.MaxUint32)
	var maxX, maxY, maxZ uint32
	for _, r := range a {
		x, y := uint32(r.hi>>32), uint32(r.hi)
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
		minZ, maxZ = min(minZ, r.lo), max(maxZ, r.lo)
	}
	wx, wy, wz := uint(bits.Len32(maxX-minX)), uint(bits.Len32(maxY-minY)), uint(bits.Len32(maxZ-minZ))
	total := wx + wy + wz
	if total > 64 {
		return nil, false
	}
	for i := range a {
		r := &a[i]
		r.hi = uint64(uint32(r.hi>>32)-minX)<<(wy+wz) | uint64(uint32(r.hi)-minY)<<wz | uint64(r.lo-minZ)
	}
	if total > 0 {
		passes := (total + 10) / 11
		digit := (total + passes - 1) / passes
		mask := uint64(1)<<digit - 1
		var next [1 << 11]int
		for shift := uint(0); shift < total; shift += digit {
			clear(next[:])
			for _, r := range a {
				next[r.hi>>shift&mask]++
			}
			pos := 0
			for d, c := range next[:mask+1] {
				next[d] = pos
				pos += c
			}
			for _, r := range a {
				d := r.hi >> shift & mask
				tmp[next[d]] = r
				next[d]++
			}
			a, tmp = tmp, a
		}
	}
	yMask := uint64(1)<<wy - 1
	for i := range a {
		k := a[i].hi >> wz
		a[i].hi = uint64(uint32(k>>wy)+minX)<<32 | uint64(uint32(k&yMask)+minY)
	}
	return a, true
}

// directory is what the two grids share: the sorted key list of the
// non-empty cells, packed as the sort records are — a cell is its index
// in it — the cell range of each time bucket, and per cell b(c), the
// objects with a point in the cell, as the strictly increasing id run
// [CellOff[c], CellOff[c+1]) of Objs (footnote 3 of the paper leaves
// the set representation open).
type directory struct {
	hi []uint64
	lo []uint32
	// Bucket bucketID[i] holds cells [bucketOff[i], bucketOff[i+1]);
	// the ids ascend. A spatial grid is the one bucket 0.
	bucketID  []int32
	bucketOff []int32

	CellOff []int32 // len Len()+1
	Objs    []int32
}

// countRuns returns the number of distinct buckets and cells in sorted
// and the number of (cell, object) runs, so the grids can size their
// arrays exactly.
func countRuns(src *points, sorted []rec) (buckets, cells, runs int) {
	for i, r := range sorted {
		newCell := i == 0 || !src.sameCell(r, sorted[i-1])
		if newCell {
			cells++
			if i == 0 || src.bucketOf(r.ord) != src.bucketOf(sorted[i-1].ord) {
				buckets++
			}
		}
		if newCell || src.objOf[r.ord] != src.objOf[sorted[i-1].ord] {
			runs++
		}
	}
	return buckets, cells, runs
}

func newDirectory(buckets, cells, runs int) directory {
	return directory{
		hi:        make([]uint64, cells),
		lo:        make([]uint32, cells),
		bucketID:  make([]int32, 0, buckets),
		bucketOff: make([]int32, 0, buckets+1),
		CellOff:   make([]int32, cells+1),
		Objs:      make([]int32, runs),
	}
}

// open makes c, the next cell of the sorted stream, the cell of key
// (hi, lo) in bucket b, and b's first cell if it has none yet.
func (d *directory) open(c int, hi uint64, lo uint32, b int32) {
	d.hi[c], d.lo[c] = hi, lo
	if n := len(d.bucketID); n == 0 || d.bucketID[n-1] != b {
		d.bucketID = append(d.bucketID, b)
		d.bucketOff = append(d.bucketOff, int32(c))
	}
}

// finish closes the last cell's object run and the last bucket's range.
func (d *directory) finish() {
	d.CellOff[d.Len()] = int32(len(d.Objs))
	d.bucketOff = append(d.bucketOff, int32(d.Len()))
}

// bucketBytes is what the bucket ranges occupy.
func (d *directory) bucketBytes() int { return 4 * (len(d.bucketID) + len(d.bucketOff)) }

// CellObjs returns b(c). The slice aliases the grid's storage and must
// not be written.
func (d *directory) CellObjs(c int) []int32 { return d.Objs[d.CellOff[c]:d.CellOff[c+1]] }

// Len returns the number of non-empty cells.
func (d *directory) Len() int { return len(d.hi) }

// Key returns the spatial key of cell c. Cells are numbered in (Bucket,
// Key.Less) order.
func (d *directory) Key(c int) Key { return unpack(d.hi[c], d.lo[c]) }

// Bucket returns the time bucket of cell c, 0 in a spatial grid.
func (d *directory) Bucket(c int) int32 {
	return d.bucketID[sort.Search(len(d.bucketID), func(i int) bool { return int(d.bucketOff[i+1]) > c })]
}

// cells returns the cell range of bucket b, empty if no point fell in
// it.
func (d *directory) cells(b int32) (from, to int) {
	i := sort.Search(len(d.bucketID), func(i int) bool { return d.bucketID[i] >= b })
	if i == len(d.bucketID) || d.bucketID[i] != b {
		return 0, 0
	}
	return int(d.bucketOff[i]), int(d.bucketOff[i+1])
}

// Find returns the cell with key k in bucket b, or -1.
func (d *directory) Find(b int32, k Key) int {
	from, to := d.cells(b)
	hi, lo := pack(k)
	if c := d.search(from, to, hi, lo); c < to && d.hi[c] == hi && d.lo[c] == lo {
		return c
	}
	return -1
}

// search returns the first cell in [from, to) whose key is not less
// than (hi, lo), or to. It gallops before it bisects: the columns of
// one neighbourhood are looked up in key order, each from where the
// last one ended, and those of one X are a few cells apart.
func (d *directory) search(from, to int, hi uint64, lo uint32) int {
	less := func(c int) bool { return d.hi[c] < hi || (d.hi[c] == hi && d.lo[c] < lo) }
	l, r := from, to
	for step := 1; l+step <= r; step <<= 1 {
		if !less(l + step - 1) {
			r = l + step - 1
			break
		}
		l += step
	}
	for l < r {
		m := int(uint(l+r) >> 1)
		if less(m) {
			l = m + 1
		} else {
			r = m
		}
	}
	return l
}

// columns calls fn for every bucket b+dt, |dt| ≤ halo, and in it every
// (X+dx, Y+dy), |dx|, |dy| ≤ radius, in increasing directory order,
// with the range [lo, hi) of cells in that column whose Z is within
// radius of k.Z: the Z-neighbours of one (bucket, X, Y) are adjacent in
// the directory, so a neighbourhood costs (2·halo+1)·(2·radius+1)²
// binary searches and no hashing. Coordinates outside int32 name no
// cell. Only ComputeAdjRadius walks it: the neighbourhood of a cell of
// the grid is read off the large grid's neighbour table (around).
func (d *directory) columns(b int32, k Key, radius, halo int32, fn func(dt, dx, dy int32, lo, hi int)) {
	first := uint32(max(int64(k.Z)-int64(radius), math.MinInt32)) ^ signBit
	last := uint32(min(int64(k.Z)+int64(radius), math.MaxInt32)) ^ signBit
	for dt := -halo; dt <= halo; dt++ {
		t := int64(b) + int64(dt)
		if t < math.MinInt32 || t > math.MaxInt32 {
			continue
		}
		from, to := d.cells(int32(t))
		for dx := -radius; dx <= radius; dx++ {
			x := int64(k.X) + int64(dx)
			for dy := -radius; dy <= radius; dy++ {
				y := int64(k.Y) + int64(dy)
				if x < math.MinInt32 || x > math.MaxInt32 || y < math.MinInt32 || y > math.MaxInt32 {
					continue
				}
				hi, _ := pack(Key{X: int32(x), Y: int32(y)})
				c := d.search(from, to, hi, first)
				end := c
				for end < to && d.hi[end] == hi && d.lo[end] <= last {
					end++
				}
				fn(dt, dx, dy, c, end)
				from = end
			}
		}
	}
}

// addPair adds to the cells of each of the columns j and q, two
// distinct columns of one neighbourhood, the postings of the other's
// cells whose Z is within 1 of theirs.
func (d *directory) addPair(s []int32, start []int32, j, q int32) {
	c, tc := int(start[j]), int(start[q])
	if int(start[j+1]) == c+1 && int(start[q+1]) == tc+1 {
		// One cell each, as every column of a planar grid.
		if z := int64(d.lo[c]) - int64(d.lo[tc]); -1 <= z && z <= 1 {
			s[c] += d.CellOff[tc+1] - d.CellOff[tc]
			s[tc] += d.CellOff[c+1] - d.CellOff[c]
		}
		return
	}
	d.addWindow(s, c, int(start[j+1]), tc, int(start[q+1]))
	d.addWindow(s, tc, int(start[q+1]), c, int(start[j+1]))
}

// addWindow adds to s[c], for every cell c of the column [from, to),
// the postings of the cells of the column [tFrom, tTo) whose Z is
// within 1 of c's. Both columns ascend in Z, so the window [lo, hi)
// only moves forward.
func (d *directory) addWindow(s []int32, from, to, tFrom, tTo int) {
	lo, hi := tFrom, tFrom
	for c := from; c < to; c++ {
		z := int64(d.lo[c])
		for lo < tTo && int64(d.lo[lo]) < z-1 {
			lo++
		}
		hi = max(hi, lo)
		for hi < tTo && int64(d.lo[hi]) <= z+1 {
			hi++
		}
		s[c] += d.CellOff[hi] - d.CellOff[lo]
	}
}
