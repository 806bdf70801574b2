// Package grid implements the two uniform grids that make up a BIGrid
// (§III-A of the paper): the small-grid, whose cell width r/√3
// guarantees that any two points sharing a cell are within r of each
// other, and the large-grid, whose cell width ⌈r⌉ guarantees that all
// points within r of a point lie in its cell or one of the 26 adjacent
// cells. A point maps to exactly one cell per grid and no empty cell is
// ever materialised: Build sorts the points by cell key and each grid
// is the run-length encoding of that order — a sorted key directory
// over grid-wide flat arrays.
package grid

import (
	"math"

	"mio/internal/geom"
)

// Key identifies a grid cell by its integer cell coordinates.
type Key struct {
	X, Y, Z int32
}

// Less orders keys lexicographically by (X, Y, Z): the order of a
// grid's cell directory.
func (k Key) Less(o Key) bool {
	if k.X != o.X {
		return k.X < o.X
	}
	if k.Y != o.Y {
		return k.Y < o.Y
	}
	return k.Z < o.Z
}

// KeyFor quantises a point to the cell key for the given cell width.
func KeyFor(p geom.Point, width float64) Key {
	return Key{
		X: int32(math.Floor(p.X / width)),
		Y: int32(math.Floor(p.Y / width)),
		Z: int32(math.Floor(p.Z / width)),
	}
}

// Neighbors appends the keys of the 26 cells adjacent to k (sharing a
// face, edge or corner) to buf and returns it. k itself is excluded.
func (k Key) Neighbors(buf []Key) []Key {
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			for dz := int32(-1); dz <= 1; dz++ {
				if dx == 0 && dy == 0 && dz == 0 {
					continue
				}
				buf = append(buf, Key{k.X + dx, k.Y + dy, k.Z + dz})
			}
		}
	}
	return buf
}

// NeighborsAndSelf appends k and its 26 adjacent keys to buf (27 keys
// total, self first) and returns it.
func (k Key) NeighborsAndSelf(buf []Key) []Key {
	buf = append(buf, k)
	return k.Neighbors(buf)
}

// NeighborhoodRadius appends every key within Chebyshev distance
// radius of k — (2·radius+1)³ keys, k included — and returns buf. The
// Appendix-A offline-grid analysis uses radius > 1: a grid built for a
// smaller r' must widen its neighbourhood to ⌈r/r'⌉ cells to stay
// correct for queries with r > r'.
func (k Key) NeighborhoodRadius(buf []Key, radius int32) []Key {
	for dx := -radius; dx <= radius; dx++ {
		for dy := -radius; dy <= radius; dy++ {
			for dz := -radius; dz <= radius; dz++ {
				buf = append(buf, Key{k.X + dx, k.Y + dy, k.Z + dz})
			}
		}
	}
	return buf
}

// SmallWidth returns the small-grid cell width for threshold r in the
// given dimensionality (2 or 3): the largest width whose cell diagonal
// is at most r, so that two points in the same cell are certainly
// within r (Definition 2).
func SmallWidth(r float64, dims int) float64 {
	if dims == 2 {
		return r / math.Sqrt2
	}
	//lint:ignore dist2 cell-width setup runs once per query, not in a point loop
	return r / math.Sqrt(3)
}

// LargeWidth returns the large-grid cell width for threshold r:
// ⌈r⌉ (Definition 3). The ceiling makes the large-grid — and therefore
// the point labels of §III-D — shareable between all queries with the
// same ⌈r⌉.
func LargeWidth(r float64) float64 {
	return math.Ceil(r)
}
