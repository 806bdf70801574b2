package core

import (
	"cmp"
	"slices"

	"mio/internal/core/labelstore"
	"mio/internal/data"
)

// This file is the engine's internal object order. Every BIGrid bitset
// — b(c), b^adj(c), b(o_i), verification's masks — is indexed by object
// id, and callers number objects arbitrarily, so a flock's members would
// be spread over all n/64 words and EWAH would store them as literals.
// NewEngine therefore renumbers the objects by the Morton key of their
// centroids: objects that interact have nearby centroids, share bitset
// words, and their sets compress into runs (the bitmap analogue of
// Lemire et al., "Sorting improves word-aligned bitmap indexes").
//
// The pipeline runs on a permuted view of the caller's dataset and
// knows no other ids. The exported entry points translate at the
// boundary (DESIGN.md §3, "Internal ids"); ties are broken by external
// id wherever they decide an order, so the verification sequence, and
// with it every work counter, is that of the caller's numbering.

// idOrder is a permutation of a dataset's object ids.
type idOrder struct {
	ext []int32 // ext[i] is the caller's id of internal object i
	pos []int32 // pos[j] is the internal id of the caller's object j
}

// spatialOrder returns ds's objects in Morton order of their centroids,
// ties broken by id, and the view of ds in that order. The view's
// objects share ds's point and time slices: it costs n headers, no
// point copies.
func spatialOrder(ds *data.Dataset) (view *data.Dataset, ord idOrder) {
	n := ds.N()
	cx, cy, cz := make([]float64, n), make([]float64, n), make([]float64, n)
	lo, hi := [3]float64{}, [3]float64{}
	for i := range ds.Objects {
		var sx, sy, sz float64
		pts := ds.Objects[i].Pts
		for _, p := range pts {
			sx, sy, sz = sx+p.X, sy+p.Y, sz+p.Z
		}
		m := float64(len(pts))
		cx[i], cy[i], cz[i] = sx/m, sy/m, sz/m
		for a, c := range [3]float64{cx[i], cy[i], cz[i]} {
			if i == 0 || c < lo[a] {
				lo[a] = c
			}
			if i == 0 || c > hi[a] {
				hi[a] = c
			}
		}
	}
	// One scale for all three axes keeps the key's cells cubic.
	extent := max(hi[0]-lo[0], hi[1]-lo[1], hi[2]-lo[2])
	scale := 0.0
	if extent > 0 {
		scale = mortonMax / extent
	}
	type keyed struct {
		key uint64
		id  int32
	}
	keys := make([]keyed, n)
	for i := range keys {
		keys[i] = keyed{
			key: morton3(quantise(cx[i], lo[0], scale), quantise(cy[i], lo[1], scale), quantise(cz[i], lo[2], scale)),
			id:  int32(i),
		}
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	ord = idOrder{ext: make([]int32, n), pos: make([]int32, n)}
	view = &data.Dataset{Name: ds.Name, Objects: make([]data.Object, n)}
	for i, k := range keys {
		ord.ext[i], ord.pos[k.id] = k.id, int32(i)
		o := &ds.Objects[k.id]
		view.Objects[i] = data.Object{ID: i, Pts: o.Pts, Times: o.Times}
	}
	return view, ord
}

// mortonMax is the largest coordinate a 63-bit 3-D Morton key holds per
// axis: 21 bits.
const mortonMax = 1<<21 - 1

// quantise maps c to [0, mortonMax] relative to lo. A NaN or infinite
// centroid lands on an end of the range: the order only has to be
// deterministic, any permutation is correct.
func quantise(c, lo, scale float64) uint64 {
	v := (c - lo) * scale
	if !(v > 0) {
		return 0
	}
	if v >= mortonMax {
		return mortonMax
	}
	return uint64(v)
}

// morton3 interleaves the low 21 bits of x, y and z, x lowest.
func morton3(x, y, z uint64) uint64 {
	return spread3(x) | spread3(y)<<1 | spread3(z)<<2
}

// spread3 moves bit b of v's low 21 bits to bit 3b.
func spread3(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// labelRows returns l with its rows reordered: row i of the result is
// row from[i] of l. The rows are l's own, so ClearBit through the result
// writes into l. labelRows(l, ord.ext) is the view a query reads and
// fills in internal order; labelRows(v, ord.pos) turns a view back into
// the caller's order, the one a store holds and persists.
func labelRows(l *labelstore.Labels, from []int32) *labelstore.Labels {
	v := &labelstore.Labels{PerObject: make([][]uint8, len(from)), R: l.R}
	for i, j := range from {
		v.PerObject[i] = l.PerObject[j]
	}
	return v
}
