package baseline

import "mio/internal/geom"

// Posting is one posting list of a simple-grid cell's inverted list: the
// points of a single object that fall into the cell. Idx holds each
// point's index within its object, parallel to Pts.
type Posting struct {
	Obj int32
	Pts []geom.Point
	Idx []int32
}

// PostingBlock is the frozen, cache-friendly image of a cell's posting
// lists: every point of the cell in one structure-of-arrays block
// (posting-major, so each posting owns a contiguous coordinate range),
// plus a per-posting offset table and axis-aligned bounding box.
//
// The AoS postings ([]Posting with []geom.Point payloads) are the
// source of truth while the simple grid is under construction; a
// PostingBlock is derived once, after mapping finishes, and is
// immutable from then on. SG probes the block with the geom batch
// kernels and skips a whole posting when Boxes[p].Dist2To(q) > r² — one
// comparison instead of a point scan.
type PostingBlock struct {
	// Xs, Ys, Zs hold the coordinates of all cell points,
	// posting-major: posting p occupies index range [Off[p], Off[p+1]).
	Xs, Ys, Zs []float64
	// Off has len(postings)+1 entries.
	Off []int32
	// Boxes[p] is the AABB of posting p's points.
	Boxes []geom.Box
}

// NewPostingBlock flattens posts into a PostingBlock. The coordinate
// blocks are allocated in one piece per axis, sized exactly.
func NewPostingBlock(posts []Posting) *PostingBlock {
	total := 0
	for i := range posts {
		total += len(posts[i].Pts)
	}
	b := &PostingBlock{
		Xs:    make([]float64, 0, total),
		Ys:    make([]float64, 0, total),
		Zs:    make([]float64, 0, total),
		Off:   make([]int32, len(posts)+1),
		Boxes: make([]geom.Box, len(posts)),
	}
	for i := range posts {
		box := geom.EmptyBox()
		for _, p := range posts[i].Pts {
			b.Xs = append(b.Xs, p.X)
			b.Ys = append(b.Ys, p.Y)
			b.Zs = append(b.Zs, p.Z)
			box = box.Expand(p)
		}
		b.Off[i+1] = int32(len(b.Xs))
		b.Boxes[i] = box
	}
	return b
}

// Points returns the coordinate sub-blocks of posting p.
func (b *PostingBlock) Points(p int) (xs, ys, zs []float64) {
	lo, hi := b.Off[p], b.Off[p+1]
	return b.Xs[lo:hi], b.Ys[lo:hi], b.Zs[lo:hi]
}

// SizeBytes estimates the block's memory footprint.
func (b *PostingBlock) SizeBytes() int {
	return 5*24 + /* headers */
		cap(b.Xs)*8 + cap(b.Ys)*8 + cap(b.Zs)*8 +
		cap(b.Off)*4 + cap(b.Boxes)*48
}
