// Package shard implements sharded MIO serving: the dataset is split
// across N in-process shard engines by a two-level space-oriented
// partition with border-object halo replicas, and a scatter–gather
// coordinator merges per-shard [LB, UB] score bounds and verified
// results into answers identical to a single-engine run — degrading to
// certified intervals, instead of failing, when shards are slow, dead
// or flapping (DESIGN.md §15).
package shard

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mio/internal/data"
	"mio/internal/geom"
)

// Partition is a two-level space-oriented split of a dataset (after
// Tsitsigkos et al., PAPERS.md): objects are assigned to shards by the
// min corner of their MBR through x-rank slabs subdivided by y-rank,
// and each shard additionally receives halo replicas — the objects
// with a point near enough to one of the shard's primary points to
// interact with it at some r ≤ MaxR — holding only those points. The
// replica discipline makes shard-local scores of primary objects exact
// for any query radius r ≤ MaxR: every possible interaction partner of
// a primary is present locally, so cross-shard interactions are counted
// exactly once (in the primary shard of each endpoint) and never twice
// (replicas are barred from answering). A replica only supplies probes:
// its own score on the shard is never asked for. The partition is a
// function of (dataset, shards, MaxR) alone, so a remote worker that
// builds it holds what an in-process shard would.
type Partition struct {
	// Shards is the number of shards.
	Shards int
	// MaxR is the replica horizon: local scores are exact for r ≤ MaxR.
	MaxR float64
	// Primary[g] is the shard that answers for global object g.
	Primary []int32
	// Ext[s] is shard s's extent: the bounding box of its primaries'
	// MBRs.
	Ext []geom.Box
	// Members[s] lists shard s's global object ids, ascending: its
	// primaries plus every halo replica.
	Members [][]int32
	// IsPrimary[s] is parallel to Members[s].
	IsPrimary [][]bool
	// start[g] is the global number of object g's first point (the
	// points of object 0, then of object 1, …); keep[s] marks, by that
	// number, the replica points shard s holds.
	start []int
	keep  [][]uint64
}

// BuildPartition splits ds across shards with halo horizon maxR.
// Primary placement balances object counts: floor(sqrt(shards)) x-rank
// slabs, each subdivided into y-rank cells, one cell per shard.
func BuildPartition(ds *data.Dataset, shards int, maxR float64) (*Partition, error) {
	n := ds.N()
	if shards < 2 {
		return nil, fmt.Errorf("shard: need at least 2 shards, got %d", shards)
	}
	if shards > n {
		return nil, fmt.Errorf("shard: %d shards for %d objects", shards, n)
	}
	if maxR <= 0 {
		return nil, fmt.Errorf("shard: replica horizon must be positive, got %g", maxR)
	}

	mbrs := make([]geom.Box, n)
	for i := range ds.Objects {
		mbrs[i] = geom.Bound(ds.Objects[i].Pts)
	}

	p := &Partition{
		Shards:    shards,
		MaxR:      maxR,
		Primary:   make([]int32, n),
		Ext:       make([]geom.Box, shards),
		Members:   make([][]int32, shards),
		IsPrimary: make([][]bool, shards),
	}

	// Level 1: split object ids into slabs by x-rank of the MBR min
	// corner. Slab widths are proportional to the number of shard cells
	// each slab will hold, so cells end up with balanced object counts.
	nSlabs := 1
	for (nSlabs+1)*(nSlabs+1) <= shards {
		nSlabs++
	}
	cellsPerSlab := make([]int, nSlabs)
	for s := 0; s < nSlabs; s++ {
		cellsPerSlab[s] = shards / nSlabs
		if s < shards%nSlabs {
			cellsPerSlab[s]++
		}
	}
	byX := make([]int32, n)
	for i := range byX {
		byX[i] = int32(i)
	}
	sort.Slice(byX, func(a, b int) bool {
		ra, rb := mbrs[byX[a]].Min, mbrs[byX[b]].Min
		if ra.X != rb.X {
			return ra.X < rb.X
		}
		return byX[a] < byX[b] // deterministic on duplicate coordinates
	})

	// Level 2: within each slab, split by y-rank into that slab's
	// cells. Shard ids are assigned slab-major.
	shardID := int32(0)
	lo := 0
	assigned := 0
	for s := 0; s < nSlabs; s++ {
		assigned += cellsPerSlab[s]
		hi := n * assigned / shards
		slab := append([]int32(nil), byX[lo:hi]...)
		sort.Slice(slab, func(a, b int) bool {
			ra, rb := mbrs[slab[a]].Min, mbrs[slab[b]].Min
			if ra.Y != rb.Y {
				return ra.Y < rb.Y
			}
			return slab[a] < slab[b]
		})
		cLo := 0
		for c := 0; c < cellsPerSlab[s]; c++ {
			cHi := len(slab) * (c + 1) / cellsPerSlab[s]
			for _, g := range slab[cLo:cHi] {
				p.Primary[g] = shardID
			}
			cLo = cHi
			shardID++
		}
		lo = hi
	}

	// Extents, then halos, point by point. The cells of the reach grid
	// are at least MaxR wide, so a point within r ≤ MaxR of a primary
	// point of s lies in that point's cell or an adjacent one: s keeps
	// every replica point in a cell next to (or holding) one of its
	// primary points, and no interaction partner of a primary is lost.
	// An object with no such point is no member of s. The MBR test in
	// front only skips objects that cannot have one: a point within MaxR
	// of a primary point is within MaxR of Ext[s]. No primary point of s
	// moves, so no primary's small cells change (Lemma 1 is the same),
	// and Lemma 2's unions only lose replicas.
	for g := 0; g < n; g++ {
		s := p.Primary[g]
		p.Ext[s] = p.Ext[s].Union(mbrs[g])
	}
	box := geom.EmptyBox()
	p.start = make([]int, n+1)
	for g := range mbrs {
		box = box.Union(mbrs[g])
		p.start[g+1] = p.start[g] + len(ds.Objects[g].Pts)
	}
	points := p.start[n]
	rc := newReach(box, maxR, points)
	cell := make([]int32, 0, points) // by global point number
	for g := range ds.Objects {
		for _, pt := range ds.Objects[g].Pts {
			cell = append(cell, rc.cell(pt))
		}
	}
	base, near := make([]uint64, rc.words()), make([]uint64, rc.words())
	far2 := horizonSlack * horizonSlack * maxR * maxR
	p.keep = make([][]uint64, shards)
	for s := 0; s < shards; s++ {
		clear(base)
		for g := 0; g < n; g++ {
			if int(p.Primary[g]) == s {
				for _, c := range cell[p.start[g]:p.start[g+1]] {
					setBit(base, int(c))
				}
			}
		}
		rc.dilate(base, near)
		keep := make([]uint64, (points+63)/64)
		for g := 0; g < n; g++ {
			prim := int(p.Primary[g]) == s
			member := prim
			if !prim && mbrs[g].Dist2ToBox(p.Ext[s]) <= far2 {
				for i := p.start[g]; i < p.start[g+1]; i++ {
					if hasBit(near, int(cell[i])) {
						setBit(keep, i)
						member = true
					}
				}
			}
			if member {
				p.Members[s] = append(p.Members[s], int32(g))
				p.IsPrimary[s] = append(p.IsPrimary[s], prim)
			}
		}
		if len(p.Members[s]) == 0 {
			return nil, fmt.Errorf("shard: shard %d received no objects", s)
		}
		p.keep[s] = keep
	}
	return p, nil
}

// reach is the dense grid the point-level halo is tested on: cells of
// width w over the dataset's bounding box, numbered x-fastest.
type reach struct {
	min        geom.Point
	w          float64
	nx, ny, nz int
}

// horizonSlack widens the halo's tests a hair beyond MaxR, so they stay
// conservative under rounding: a pair at exactly MaxR is never two
// cells apart, nor its MBR past the extent test.
const horizonSlack = 1 + 1e-6

// newReach lays cells of width horizonSlack·maxR over box. A grid of
// more than 64 cells per point (one bit each, two bitmaps) doubles its
// width until it fits, which only keeps more points; a box that is not
// finite gets one cell.
func newReach(box geom.Box, maxR float64, points int) reach {
	ext := box.Extent()
	limit := float64(64*points + 1<<12)
	for w := horizonSlack * maxR; !math.IsInf(w, 1); w *= 2 {
		nx, ny, nz := math.Floor(ext.X/w)+1, math.Floor(ext.Y/w)+1, math.Floor(ext.Z/w)+1
		if nx*ny*nz <= limit {
			return reach{min: box.Min, w: w, nx: int(nx), ny: int(ny), nz: int(nz)}
		}
	}
	return reach{min: box.Min, w: math.Inf(1), nx: 1, ny: 1, nz: 1}
}

func (rc *reach) words() int { return (rc.nx*rc.ny*rc.nz + 63) / 64 }

// axis returns the cell coordinate of v ≥ lo along an axis of n cells
// from lo, clamped into the grid.
func (rc *reach) axis(v, lo float64, n int) int {
	return max(0, min(n-1, int((v-lo)/rc.w)))
}

// cell returns the number of the cell holding pt.
func (rc *reach) cell(pt geom.Point) int32 {
	x := rc.axis(pt.X, rc.min.X, rc.nx)
	y := rc.axis(pt.Y, rc.min.Y, rc.ny)
	z := rc.axis(pt.Z, rc.min.Z, rc.nz)
	return int32((z*rc.ny+y)*rc.nx + x)
}

// dilate sets in near every cell of base and every cell adjacent to
// one, across faces, edges and corners.
func (rc *reach) dilate(base, near []uint64) {
	clear(near)
	for wi, w := range base {
		for ; w != 0; w &= w - 1 {
			c := wi<<6 + bits.TrailingZeros64(w)
			x, y, z := c%rc.nx, c/rc.nx%rc.ny, c/(rc.nx*rc.ny)
			for zz := max(z-1, 0); zz <= min(z+1, rc.nz-1); zz++ {
				for yy := max(y-1, 0); yy <= min(y+1, rc.ny-1); yy++ {
					row := (zz*rc.ny + yy) * rc.nx
					for xx := max(x-1, 0); xx <= min(x+1, rc.nx-1); xx++ {
						setBit(near, row+xx)
					}
				}
			}
		}
	}
}

func setBit(b []uint64, i int)      { b[i>>6] |= 1 << (i & 63) }
func hasBit(b []uint64, i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// ShardDataset materialises shard s's local dataset: members renumbered
// from zero. A primary, and a replica whose points shard s keeps in
// full, alias the dataset's point storage; so does a trimmed replica
// whose kept points form one run of its points, as a trajectory's
// often do. Any other trimmed replica holds a copy of the points s
// keeps. Timestamps follow their points. The returned mask marks the
// local ids that are primaries.
func (p *Partition) ShardDataset(ds *data.Dataset, s int) (*data.Dataset, []bool) {
	members := p.Members[s]
	local := &data.Dataset{
		Name:    fmt.Sprintf("%s[shard %d/%d]", ds.Name, s, p.Shards),
		Objects: make([]data.Object, len(members)),
	}
	for l, g := range members {
		src := &ds.Objects[g]
		local.Objects[l] = data.Object{ID: l, Pts: src.Pts, Times: src.Times}
		if !p.IsPrimary[s][l] {
			local.Objects[l].Pts, local.Objects[l].Times = p.kept(s, src, p.start[g])
		}
	}
	return local, p.IsPrimary[s]
}

// kept returns the points (and timestamps) of replica src that shard s
// keeps; first is the global number of src's first point.
func (p *Partition) kept(s int, src *data.Object, first int) ([]geom.Point, []float64) {
	keep := p.keep[s]
	lo, hi, c := len(src.Pts), 0, 0
	for j := range src.Pts {
		if hasBit(keep, first+j) {
			lo, hi, c = min(lo, j), j+1, c+1
		}
	}
	if c == hi-lo {
		var times []float64
		if src.Times != nil {
			times = src.Times[lo:hi:hi]
		}
		return src.Pts[lo:hi:hi], times
	}
	pts := make([]geom.Point, 0, c)
	var times []float64
	if src.Times != nil {
		times = make([]float64, 0, c)
	}
	for j, pt := range src.Pts {
		if hasBit(keep, first+j) {
			pts = append(pts, pt)
			if times != nil {
				times = append(times, src.Times[j])
			}
		}
	}
	return pts, times
}

// Primaries returns the number of primary objects of shard s.
func (p *Partition) Primaries(s int) int {
	c := 0
	for _, prim := range p.IsPrimary[s] {
		if prim {
			c++
		}
	}
	return c
}
