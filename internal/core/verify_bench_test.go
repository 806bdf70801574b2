package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"mio/internal/bitmap"
	"mio/internal/data"
	"mio/internal/geom"
	"mio/internal/grid"
)

var benchStandins = struct {
	once sync.Once
	sets map[string]*data.Dataset
}{}

// standin returns the named scaled-down stand-in dataset (Bird, Neuron,
// ...), generated once per process at scale 0.25.
func standin(b *testing.B, name string) *data.Dataset {
	b.Helper()
	benchStandins.once.Do(func() { benchStandins.sets = data.Standard(0.25) })
	ds := benchStandins.sets[name]
	if ds == nil {
		b.Fatalf("unknown stand-in %q", name)
	}
	return ds
}

// BenchmarkProbeCellDenseMask is the regression benchmark for
// probeCell's inner loop: the O(1) mask cardinality (a counter
// maintained by bitmap.Scratch) and the FirstWithin2 scan over each
// posting's contiguous coordinates. It probes the biggest cells — where
// verification time concentrates — with a dense mask and a one-point
// group one cell over, so every posting is scanned to its end rather
// than resolved by an early first-point hit.
func BenchmarkProbeCellDenseMask(b *testing.B) {
	// Probe from 1.5 cell widths past each cell's centre: every point of
	// the cell is between 1.0 and 2.5 widths away, so with r = width the
	// probes are misses and every posting scans to the end: the expensive
	// regime. First-point hits are cheap under any layout.
	benchmarkProbeCell(b, func(k grid.Key, w float64) []geom.Point {
		return []geom.Point{geom.Pt((float64(k.X)+2.0)*w, (float64(k.Y)+0.5)*w, (float64(k.Z)+0.5)*w)}
	})
}

// BenchmarkProbeCellDenseMaskGroup is BenchmarkProbeCellDenseMask with
// an eight-point group one cell over: the corners of a box 0.2 cells
// deep in X and half a cell in Y and Z, its near face three quarters of
// a cell past the big cell. Postings with no point within r of the box
// are rejected in one scan (geom.Near); the rest are scanned per
// group point, from their first point near the box.
func BenchmarkProbeCellDenseMaskGroup(b *testing.B) {
	benchmarkProbeCell(b, func(k grid.Key, w float64) []geom.Point {
		var pts []geom.Point
		for _, x := range []float64{1.75, 1.95} {
			for _, y := range []float64{0.25, 0.75} {
				for _, z := range []float64{0.25, 0.75} {
					pts = append(pts, geom.Pt((float64(k.X)+x)*w, (float64(k.Y)+y)*w, (float64(k.Z)+z)*w))
				}
			}
		}
		return pts
	})
}

// probeCells is how many of the biggest cells one op of
// benchmarkProbeCell probes. The single biggest cell of the Neuron
// stand-in at r = 8 holds 80 points, a fraction of a microsecond to
// probe, which run-to-run noise swamps; 256 cells make an op tens of
// microseconds.
const probeCells = 256

// benchmarkProbeCell probes the Neuron stand-in's probeCells biggest
// cells at r = 8, each with a dense mask and a group of the points that
// points returns for the cell's key and the cell width.
func benchmarkProbeCell(b *testing.B, points func(k grid.Key, w float64) []geom.Point) {
	eng, err := NewEngine(standin(b, "Neuron"), Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := newQuery(eng, 8, 1)
	q.gridMapping()

	// The cells with the most points give the worst-case posting scans.
	large := q.idx.large
	size := func(c int) int32 { return large.Off[large.CellOff[c+1]] - large.Off[large.CellOff[c]] }
	cells := make([]int, large.Len())
	for c := range cells {
		cells[c] = c
	}
	slices.SortStableFunc(cells, func(a, b int) int { return int(size(b) - size(a)) })
	cells = cells[:min(probeCells, len(cells))]
	adjs := make([]*bitmap.Compressed, len(cells))
	groups := make([]group, len(cells))
	for i, c := range cells {
		adjs[i], _ = large.ComputeAdj(c)
		g := &groups[i]
		for n, p := range points(large.Key(c), grid.LargeWidth(8)) {
			g.xs, g.ys, g.zs = append(g.xs, p.X), append(g.ys, p.Y), append(g.zs, p.Z)
			g.idx = append(g.idx, int32(n))
		}
		g.bound(q.r2)
	}
	sw := scoreWalk{q: q, bOi: bitmap.NewScratch(q.n), mask: bitmap.NewScratch(q.n)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, c := range cells {
			sw.bOi.Reset()
			sw.bOi.Set(0)
			sw.mask.AndNotFromCompressed(adjs[j], sw.bOi)
			sw.probeCell(c, &groups[j], false)
		}
	}
	b.ReportMetric(float64(sw.ctr.distComps)/float64(b.N), "distComps/op")
}

// benchmarkEngineQuery times the full pipeline (online grid build +
// bounding + verification) on one stand-in, the end-to-end number the
// paper's Fig. 5 reports. Each query gets a fresh engine, built with
// the timer stopped: a reused one would take τ^upp from its cache.
func benchmarkEngineQuery(b *testing.B, dataset string, r float64) {
	ds := standin(b, dataset)
	b.ReportAllocs()
	b.ResetTimer()
	var distComps int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, err := NewEngine(ds, Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := eng.RunTopK(r, 1)
		if err != nil {
			b.Fatal(err)
		}
		distComps = res.Stats.DistanceComps
	}
	b.ReportMetric(float64(distComps), "distComps/op")
}

func BenchmarkEngineQueryBird(b *testing.B) {
	for _, r := range []float64{15, 40} {
		b.Run(fmt.Sprintf("r=%g", r), func(b *testing.B) { benchmarkEngineQuery(b, "Bird", r) })
	}
}

func BenchmarkEngineQueryNeuron(b *testing.B) {
	for _, r := range []float64{4, 8} {
		b.Run(fmt.Sprintf("r=%g", r), func(b *testing.B) { benchmarkEngineQuery(b, "Neuron", r) })
	}
}
