// Package rtree implements a static, STR-bulk-loaded R-tree over boxed
// entries. It backs the MBR-based baselines of §II-B: the paper argues
// that R-trees are ineffective for point-set objects because complex
// object shapes produce "uselessly large rectangles with large empty
// spaces"; the baselines built on this package demonstrate that
// empirically.
package rtree

import (
	"math"
	"sort"

	"mio/internal/geom"
)

// Entry is one indexed item: a bounding box and an opaque payload id.
type Entry struct {
	Box geom.Box
	ID  int32
}

type node struct {
	box      geom.Box
	children []int32 // node indices; nil for leaves
	entries  []Entry // leaf payload
}

// Tree is an immutable R-tree.
type Tree struct {
	nodes []node
	root  int32
	size  int
}

// DefaultFanout is the node capacity used when Build is given a
// non-positive fanout.
const DefaultFanout = 16

// Build bulk-loads a tree from entries with the Sort-Tile-Recursive
// algorithm: entries are sorted into x-slabs, each slab into y-runs,
// each run into z-tiles of fanout entries.
func Build(entries []Entry, fanout int) *Tree {
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	t := &Tree{size: len(entries)}
	if len(entries) == 0 {
		t.root = -1
		return t
	}
	own := append([]Entry(nil), entries...)
	leaves := strPack(own, fanout, func(group []Entry) int32 {
		box := geom.EmptyBox()
		for _, e := range group {
			box = box.Union(e.Box)
		}
		t.nodes = append(t.nodes, node{box: box, entries: group})
		return int32(len(t.nodes) - 1)
	})
	t.root = t.buildUpper(leaves, fanout)
	return t
}

// buildUpper packs node ids level by level until one root remains.
func (t *Tree) buildUpper(ids []int32, fanout int) int32 {
	for len(ids) > 1 {
		// Pack child nodes by box centre with the same STR scheme.
		entries := make([]Entry, len(ids))
		for i, id := range ids {
			entries[i] = Entry{Box: t.nodes[id].box, ID: id}
		}
		ids = strPack(entries, fanout, func(group []Entry) int32 {
			box := geom.EmptyBox()
			children := make([]int32, len(group))
			for i, e := range group {
				box = box.Union(e.Box)
				children[i] = e.ID
			}
			t.nodes = append(t.nodes, node{box: box, children: children})
			return int32(len(t.nodes) - 1)
		})
	}
	return ids[0]
}

// strPack tiles entries into groups of fanout via x/y/z sorting and
// emits each group, returning the emitted ids.
func strPack(entries []Entry, fanout int, emit func([]Entry) int32) []int32 {
	n := len(entries)
	leafCount := (n + fanout - 1) / fanout
	slabCount := int(math.Ceil(math.Cbrt(float64(leafCount))))
	center := func(e Entry, a geom.Axis) float64 {
		return (e.Box.Min.Coord(a) + e.Box.Max.Coord(a)) / 2
	}
	sort.Slice(entries, func(i, j int) bool { return center(entries[i], geom.AxisX) < center(entries[j], geom.AxisX) })
	var ids []int32
	slabSize := (n + slabCount - 1) / slabCount
	for x := 0; x < n; x += slabSize {
		xe := entries[x:min(x+slabSize, n)]
		sort.Slice(xe, func(i, j int) bool { return center(xe[i], geom.AxisY) < center(xe[j], geom.AxisY) })
		runCount := int(math.Ceil(math.Sqrt(float64((len(xe) + fanout - 1) / fanout))))
		runSize := (len(xe) + runCount - 1) / runCount
		for y := 0; y < len(xe); y += runSize {
			ye := xe[y:min(y+runSize, len(xe))]
			sort.Slice(ye, func(i, j int) bool { return center(ye[i], geom.AxisZ) < center(ye[j], geom.AxisZ) })
			for z := 0; z < len(ye); z += fanout {
				ids = append(ids, emit(ye[z:min(z+fanout, len(ye))]))
			}
		}
	}
	return ids
}

// Len returns the number of indexed entries.
func (t *Tree) Len() int { return t.size }

// Depth returns the height of the tree (1 for a single leaf).
func (t *Tree) Depth() int {
	if t.root < 0 {
		return 0
	}
	d := 1
	id := t.root
	for t.nodes[id].children != nil {
		d++
		id = t.nodes[id].children[0]
	}
	return d
}

// SearchWithin visits every entry whose box lies within distance r of
// p (box min-distance ≤ r). visit returning false stops the search.
func (t *Tree) SearchWithin(p geom.Point, r float64, visit func(Entry) bool) {
	if t.root < 0 {
		return
	}
	t.searchWithin(t.root, p, r*r, visit)
}

func (t *Tree) searchWithin(id int32, p geom.Point, r2 float64, visit func(Entry) bool) bool {
	n := &t.nodes[id]
	if n.box.Dist2To(p) > r2 {
		return true
	}
	if n.children == nil {
		for _, e := range n.entries {
			if e.Box.Dist2To(p) > r2 {
				continue
			}
			if !visit(e) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !t.searchWithin(c, p, r2, visit) {
			return false
		}
	}
	return true
}

// SearchBoxWithin visits every entry whose box lies within distance r
// of box q (box-to-box min distance ≤ r).
func (t *Tree) SearchBoxWithin(q geom.Box, r float64, visit func(Entry) bool) {
	if t.root < 0 {
		return
	}
	t.searchBoxWithin(t.root, q, r*r, visit)
}

func (t *Tree) searchBoxWithin(id int32, q geom.Box, r2 float64, visit func(Entry) bool) bool {
	n := &t.nodes[id]
	if boxDist2(n.box, q) > r2 {
		return true
	}
	if n.children == nil {
		for _, e := range n.entries {
			if boxDist2(e.Box, q) > r2 {
				continue
			}
			if !visit(e) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !t.searchBoxWithin(c, q, r2, visit) {
			return false
		}
	}
	return true
}

// boxDist2 returns the squared minimum distance between two boxes
// (0 when they intersect).
func boxDist2(a, b geom.Box) float64 {
	d := 0.0
	for _, ax := range []geom.Axis{geom.AxisX, geom.AxisY, geom.AxisZ} {
		lo1, hi1 := a.Min.Coord(ax), a.Max.Coord(ax)
		lo2, hi2 := b.Min.Coord(ax), b.Max.Coord(ax)
		if hi1 < lo2 {
			d += (lo2 - hi1) * (lo2 - hi1)
		} else if hi2 < lo1 {
			d += (lo1 - hi2) * (lo1 - hi2)
		}
	}
	return d
}
