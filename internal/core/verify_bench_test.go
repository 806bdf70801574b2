package core

import (
	"fmt"
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
// posting's contiguous coordinates. It probes the biggest cell — where
// verification time concentrates — with a dense mask and a one-point
// group one cell over, so every posting is scanned to its end rather
// than resolved by an early first-point hit.
func BenchmarkProbeCellDenseMask(b *testing.B) {
	eng, err := NewEngine(standin(b, "Neuron"), Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	q := newQuery(eng, 8, 1)
	q.gridMapping()

	// The cell with the most points gives the worst-case posting scan.
	large := q.idx.large
	cell, bestPts := 0, -1
	for c := 0; c < large.Len(); c++ {
		if pts := int(large.Off[large.CellOff[c+1]] - large.Off[large.CellOff[c]]); pts > bestPts {
			cell, bestPts = c, pts
		}
	}
	bestKey := large.Key(cell)
	adj, _ := large.ComputeAdj(cell)
	// Probe from 1.5 cell widths past the cell's centre: every point of
	// the cell is between 1.0 and 2.5 widths away, so with r = width the
	// probes are misses and every posting scans to the end: the expensive
	// regime. First-point hits are cheap under any layout.
	w := grid.LargeWidth(8)
	p := geom.Pt((float64(bestKey.X)+2.0)*w, (float64(bestKey.Y)+0.5)*w, (float64(bestKey.Z)+0.5)*w)

	g := group{xs: []float64{p.X}, ys: []float64{p.Y}, zs: []float64{p.Z}, idx: []int32{0}}
	sw := scoreWalk{q: q, bOi: bitmap.NewScratch(q.n), mask: bitmap.NewScratch(q.n)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.bOi.Reset()
		sw.bOi.Set(0)
		sw.mask.AndNotFromCompressed(adj, sw.bOi)
		sw.probeCell(cell, &g, false)
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
