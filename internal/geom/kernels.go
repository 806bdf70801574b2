package geom

// Batch distance kernels over structure-of-arrays point blocks.
//
// The verification hot path (Algorithm 6 lines 13-17) resolves one
// query point against a whole posting list at a time. Walking a
// []Point slice pays a 24-byte stride and a branch per point; these
// kernels instead take the coordinates as three flat []float64 blocks
// (the layout of grid.LargeGrid's postings), which keeps the loads
// sequential, lets the compiler eliminate bounds checks, and unrolls
// the squared-distance evaluation 4-wide. All kernels are
// allocation-free and evaluate exactly dx*dx + dy*dy + dz*dz per
// point — the same expression shape as Dist2, so results are
// bit-identical to the scalar oracle.
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
