package data_test

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"mio/internal/data"
)

// These tests pin each adversarial generator to its advertised shape,
// measured directly on the generated points: extent, planarity, density,
// object-size quantiles and the occupancy skew of a 32-per-axis probe
// grid over the bounding box. All generators are deterministic under
// their seeds — asserted by generating twice.

// shape is what the tests measure of a dataset.
type shape struct {
	spanX, spanY, spanZ float64
	planar              bool    // every point has the same Z
	density             float64 // points per unit of occupied area (planar) or volume
	sizeP10, sizeP50    int     // object-size quantiles
	sizeP99, sizeMax    int
	topDecileShare      float64 // share of points in the fullest 10% of occupied probe cells
	maxCellShare        float64 // share of points in the fullest probe cell
}

// cellPoints estimates the points per verification cell (width ⌈r⌉) at
// the dataset's average density.
func (s shape) cellPoints(r float64) float64 {
	w := math.Ceil(r)
	if s.planar {
		return s.density * w * w
	}
	return s.density * w * w * w
}

func measure(t *testing.T, gen func() *data.Dataset) shape {
	t.Helper()
	ds := gen()
	if !reflect.DeepEqual(ds, gen()) {
		t.Fatal("generator is not deterministic under its fixed seed")
	}
	const side = 32
	box := ds.Bounds()
	s := shape{
		spanX:  box.Max.X - box.Min.X,
		spanY:  box.Max.Y - box.Min.Y,
		spanZ:  box.Max.Z - box.Min.Z,
		planar: box.Max.Z == box.Min.Z,
	}
	cell := func(v, lo, span float64) int {
		if span <= 0 {
			return 0
		}
		return min(int((v-lo)/span*side), side-1) // the max coordinate lands inside
	}
	sizes := make([]int, 0, ds.N())
	counts := map[int]int{}
	points := 0
	for i := range ds.Objects {
		pts := ds.Objects[i].Pts
		sizes = append(sizes, len(pts))
		points += len(pts)
		for _, p := range pts {
			counts[(cell(p.X, box.Min.X, s.spanX)*side+cell(p.Y, box.Min.Y, s.spanY))*side+cell(p.Z, box.Min.Z, s.spanZ)]++
		}
	}
	vol := 1.0
	for _, span := range []float64{s.spanX, s.spanY, s.spanZ} {
		if span > 0 {
			vol *= span
		}
	}
	s.density = float64(points) / vol

	sort.Ints(sizes)
	q := func(f float64) int { return sizes[min(int(f*float64(len(sizes))), len(sizes)-1)] }
	s.sizeP10, s.sizeP50, s.sizeP99, s.sizeMax = q(0.10), q(0.50), q(0.99), sizes[len(sizes)-1]

	occ := make([]int, 0, len(counts))
	for _, c := range counts {
		occ = append(occ, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(occ)))
	top := 0
	for _, c := range occ[:max(len(occ)/10, 1)] {
		top += c
	}
	s.topDecileShare = float64(top) / float64(points)
	s.maxCellShare = float64(occ[0]) / float64(points)
	return s
}

func TestOneCellShape(t *testing.T) {
	cfg := data.DefaultOneCell()
	s := measure(t, func() *data.Dataset { return data.GenOneCell(cfg) })
	if s.spanX > cfg.Side || s.spanY > cfg.Side || s.spanZ > cfg.Side {
		t.Fatalf("spans %g/%g/%g exceed the advertised cube side %g", s.spanX, s.spanY, s.spanZ, cfg.Side)
	}
	if s.planar {
		t.Fatal("one-cell data is planar, want 3-D")
	}
	// Everything within one query cell at any bench radius.
	if got := s.cellPoints(4); got < 1000 {
		t.Fatalf("expected cell points at r=4 = %g, want ≥ 1000", got)
	}
}

func TestUniformSparseShape(t *testing.T) {
	cfg := data.DefaultUniformSparse()
	s := measure(t, func() *data.Dataset { return data.GenUniformSparse(cfg) })
	if !s.planar {
		t.Fatal("sparse data is not planar")
	}
	// Uniform: the top decile of cells holds barely more than 10% of
	// the mass; no single cell concentrates anything.
	if s.topDecileShare > 0.25 {
		t.Fatalf("top decile share = %g, want ≤ 0.25 (uniform)", s.topDecileShare)
	}
	if s.maxCellShare > 0.01 {
		t.Fatalf("max cell share = %g, want tiny", s.maxCellShare)
	}
	// Sparse: well under one object per query cell at the max bench r.
	if got := s.cellPoints(10); got >= 16 {
		t.Fatalf("expected cell points at r=10 = %g, want sparse (< 16)", got)
	}
}

func TestPowerLawSizesShape(t *testing.T) {
	cfg := data.DefaultPowerLawSizes()
	s := measure(t, func() *data.Dataset { return data.GenPowerLawSizes(cfg) })
	if skew := float64(s.sizeP99) / float64(s.sizeP50); skew < 8 {
		t.Fatalf("size skew P99/P50 = %g, want ≥ 8 (power-law sizes)", skew)
	}
	if s.sizeMax < 50*s.sizeP50 {
		t.Fatalf("size max/p50 = %d/%d, want ≥ 50× spread", s.sizeMax, s.sizeP50)
	}
	if s.sizeP10 > 2*cfg.MinM {
		t.Fatalf("size p10 = %d, want near MinM=%d (mass at the small end)", s.sizeP10, cfg.MinM)
	}
}

func TestHotspotCommuteShape(t *testing.T) {
	cfg := data.DefaultHotspotCommute()
	s := measure(t, func() *data.Dataset { return data.GenHotspotCommute(cfg) })
	if !s.planar {
		t.Fatal("commute data is not planar")
	}
	// Hotspots concentrate most of the mass in few cells.
	if s.topDecileShare < 0.5 {
		t.Fatalf("top decile share = %g, want ≥ 0.5 (hotspot skew)", s.topDecileShare)
	}
}

func TestAdversarialMapScalesAndValidates(t *testing.T) {
	sets := data.Adversarial(0.15)
	want := []string{"OneCell", "Sparse", "PowerSize", "Commute"}
	for _, name := range want {
		ds, ok := sets[name]
		if !ok {
			t.Fatalf("missing adversarial dataset %q", name)
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.Name != name {
			t.Fatalf("dataset name %q, want %q", ds.Name, name)
		}
	}
	full := data.Adversarial(1.0)
	if full["Sparse"].N() <= sets["Sparse"].N() {
		t.Fatal("scale factor does not scale object counts")
	}
}
