package geom

import "math"

// Batch distance kernels over structure-of-arrays point blocks.
//
// The verification hot path (Algorithm 6 lines 13-17) resolves one
// query point against a whole posting list at a time. Walking a
// []Point slice pays a 24-byte stride and a branch per point; these
// kernels instead take the coordinates as three flat []float64 blocks
// (the layout of grid.LargeGrid's postings), which keeps the loads
// sequential, lets the compiler eliminate bounds checks, and unrolls
// the squared-distance evaluation 4-wide. All kernels are
// allocation-free, and the point kernels evaluate exactly
// dx*dx + dy*dy + dz*dz per point — the same expression shape as Dist2,
// so results are bit-identical to the scalar oracle. Near tests a
// block against a point group's box (BoundBlock) in one pass; it is
// sound with respect to the point kernels, not bit-identical to them.
//
// xs, ys and zs must have equal length; the kernels panic otherwise
// (via the reslice below) rather than silently truncating.

// FirstWithin2 returns the index of the first point (xs[i], ys[i],
// zs[i]) whose squared distance to (px, py, pz) is at most r2, or -1
// when no point qualifies. The scan is 4-wide unrolled with an early
// exit after each block, and within a qualifying block the lowest
// index wins — exactly the point the scalar break-on-first-hit loop
// would have stopped at.
func FirstWithin2(px, py, pz float64, xs, ys, zs []float64, r2 float64) int {
	n := len(xs)
	ys = ys[:n]
	zs = zs[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dx0 := xs[i] - px
		dy0 := ys[i] - py
		dz0 := zs[i] - pz
		dx1 := xs[i+1] - px
		dy1 := ys[i+1] - py
		dz1 := zs[i+1] - pz
		dx2 := xs[i+2] - px
		dy2 := ys[i+2] - py
		dz2 := zs[i+2] - pz
		dx3 := xs[i+3] - px
		dy3 := ys[i+3] - py
		dz3 := zs[i+3] - pz
		d0 := dx0*dx0 + dy0*dy0 + dz0*dz0
		d1 := dx1*dx1 + dy1*dy1 + dz1*dz1
		d2 := dx2*dx2 + dy2*dy2 + dz2*dz2
		d3 := dx3*dx3 + dy3*dy3 + dz3*dz3
		if d0 <= r2 || d1 <= r2 || d2 <= r2 || d3 <= r2 {
			if d0 <= r2 {
				return i
			}
			if d1 <= r2 {
				return i + 1
			}
			if d2 <= r2 {
				return i + 2
			}
			return i + 3
		}
	}
	for ; i < n; i++ {
		dx := xs[i] - px
		dy := ys[i] - py
		dz := zs[i] - pz
		if dx*dx+dy*dy+dz*dz <= r2 {
			return i
		}
	}
	return -1
}

// AnyWithin2 reports whether any point of the block lies within
// squared distance r2 of (px, py, pz).
func AnyWithin2(px, py, pz float64, xs, ys, zs []float64, r2 float64) bool {
	return FirstWithin2(px, py, pz, xs, ys, zs, r2) >= 0
}

// CountWithin2 returns the number of points of the block within
// squared distance r2 of (px, py, pz). Unlike FirstWithin2 it scans
// the whole block (no early exit), so branchless accumulation keeps
// the 4-wide blocks tight.
func CountWithin2(px, py, pz float64, xs, ys, zs []float64, r2 float64) int {
	n := len(xs)
	ys = ys[:n]
	zs = zs[:n]
	count := 0
	i := 0
	for ; i+4 <= n; i += 4 {
		dx0 := xs[i] - px
		dy0 := ys[i] - py
		dz0 := zs[i] - pz
		dx1 := xs[i+1] - px
		dy1 := ys[i+1] - py
		dz1 := zs[i+1] - pz
		dx2 := xs[i+2] - px
		dy2 := ys[i+2] - py
		dz2 := zs[i+2] - pz
		dx3 := xs[i+3] - px
		dy3 := ys[i+3] - py
		dz3 := zs[i+3] - pz
		if dx0*dx0+dy0*dy0+dz0*dz0 <= r2 {
			count++
		}
		if dx1*dx1+dy1*dy1+dz1*dz1 <= r2 {
			count++
		}
		if dx2*dx2+dy2*dy2+dz2*dz2 <= r2 {
			count++
		}
		if dx3*dx3+dy3*dy3+dz3*dz3 <= r2 {
			count++
		}
	}
	for ; i < n; i++ {
		dx := xs[i] - px
		dy := ys[i] - py
		dz := zs[i] - pz
		if dx*dx+dy*dy+dz*dz <= r2 {
			count++
		}
	}
	return count
}

// BoundBlock returns the bounding box of the block's points. A NaN
// coordinate is left out of it, which is sound for Near: no kernel
// here finds a point with a NaN coordinate within any distance.
func BoundBlock(xs, ys, zs []float64) Box {
	b := EmptyBox()
	ys = ys[:len(xs)]
	zs = zs[:len(xs)]
	for i, x := range xs {
		y, z := ys[i], zs[i]
		if x < b.Min.X {
			b.Min.X = x
		}
		if x > b.Max.X {
			b.Max.X = x
		}
		if y < b.Min.Y {
			b.Min.Y = y
		}
		if y > b.Max.Y {
			b.Max.Y = y
		}
		if z < b.Min.Z {
			b.Min.Z = z
		}
		if z > b.Max.Z {
			b.Max.Z = z
		}
	}
	return b
}

// Near is a box b and a squared distance r2 prepared to test blocks of
// points against (First). A point of a block that FirstWithin2 finds
// within r2 of some point inside b is always within r2 of b, so a miss
// proves FirstWithin2 misses the block for every point b contains. The
// gap to b is never larger than the difference to such a point, axis by
// axis, and rounding is monotone, so only the way the squares are
// summed could differ: the compiler may fuse FirstWithin2's x*y+z into
// FMAs (Go does on arm64; on amd64 it does not, even at GOAMD64=v3),
// while the explicit float64 conversions in First keep this sum
// unfused. The two differ by a few ulps at most, so the test compares
// against r2 widened by 2⁻⁴⁰ of itself plus 2⁻¹⁰⁶⁰ for sums that
// underflow.
//
// Most points of a block are far from the box, and the gap to it costs
// more than a distance, so each point is first held against the ball
// around the box's centre c that holds every point within r of the box:
// its radius is the half-diagonal of a box around c that contains b,
// plus r. Only a point inside the ball pays for the gap. The ball's
// squared radius is widened by 2⁻³⁸ of itself, which covers the
// rounding of the half-diagonal, the radius and the point's distance to
// c, each a few ulps, and by 2⁻¹⁰⁰⁰ for squares that underflow; c
// itself need not be exact, and halving before adding keeps it finite
// for any finite box.
type Near struct {
	box        Box
	lim        float64 // r2, widened
	cx, cy, cz float64
	reach      float64 // the ball's squared radius, widened
}

// NewNear prepares the test of box b at squared distance r2.
func NewNear(b Box, r2 float64) Near {
	n := Near{box: b, lim: r2 + r2*0x1p-40 + 0x1p-1060}
	n.cx, n.cy, n.cz = b.Min.X*0.5+b.Max.X*0.5, b.Min.Y*0.5+b.Max.Y*0.5, b.Min.Z*0.5+b.Max.Z*0.5
	hx := max(n.cx-b.Min.X, b.Max.X-n.cx)
	hy := max(n.cy-b.Min.Y, b.Max.Y-n.cy)
	hz := max(n.cz-b.Min.Z, b.Max.Z-n.cz)
	radius := math.Sqrt(hx*hx+hy*hy+hz*hz) + math.Sqrt(n.lim)
	n.reach = radius*radius + radius*radius*0x1p-38 + 0x1p-1000
	return n
}

// First returns the index of the first point of the block within
// squared distance r2 of the box, or -1 when none is. Both tests take
// no branch but their exits: which axis separates a point from the box
// varies from point to point, so per-axis early rejects mispredict more
// than they save.
func (n *Near) First(xs, ys, zs []float64) int {
	minX, minY, minZ := n.box.Min.X, n.box.Min.Y, n.box.Min.Z
	maxX, maxY, maxZ := n.box.Max.X, n.box.Max.Y, n.box.Max.Z
	cx, cy, cz, reach, lim := n.cx, n.cy, n.cz, n.reach, n.lim
	ys = ys[:len(xs)]
	zs = zs[:len(xs)]
	for i, x := range xs {
		y, z := ys[i], zs[i]
		if dx, dy, dz := x-cx, y-cy, z-cz; dx*dx+dy*dy+dz*dz > reach {
			continue
		}
		gx := gap(minX-x, x-maxX)
		gy := gap(minY-y, y-maxY)
		gz := gap(minZ-z, z-maxZ)
		if float64(gx*gx)+float64(gy*gy)+float64(gz*gz) <= lim {
			return i
		}
	}
	return -1
}

// gap returns max(lo, hi, 0) for the differences lo = min − v and
// hi = v − max of a coordinate v and a box's interval on its axis, of
// which at most one is positive. v + |v| is 2v or 0 without rounding
// (2v may overflow to +Inf, where the squared gap would be anyway), so
// the result is exact, and it takes no branch.
func gap(lo, hi float64) float64 {
	return ((lo + math.Abs(lo)) + (hi + math.Abs(hi))) * 0.5
}
