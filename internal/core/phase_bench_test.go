package core

// Phase-level benchmarks: one per pipeline stage, for profiling and
// performance-regression tracking. The root bench_test.go covers the
// paper's end-to-end tables; these isolate the internals.

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"mio/internal/bitmap"
	"mio/internal/data"
)

var phaseDS = struct {
	once sync.Once
	ds   *data.Dataset
}{}

func phaseDataset() *data.Dataset {
	phaseDS.once.Do(func() {
		phaseDS.ds = data.GenTrajectory(data.TrajectoryConfig{
			N: 1500, M: 40, Groups: 10, FieldSize: 4000, Speed: 16, FollowStd: 6, Solo: 0.25, Seed: 71,
		})
	})
	return phaseDS.ds
}

func phaseQuery(b *testing.B, workers int) *query {
	b.Helper()
	eng, err := NewEngine(phaseDataset(), Options{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	return newQuery(eng, 4, 1)
}

func BenchmarkPhaseGridMapping(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := phaseQuery(b, 1)
		q.gridMapping()
	}
}

func BenchmarkPhaseGridMappingParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := phaseQuery(b, 2)
		q.gridMapping()
	}
}

func BenchmarkPhaseLowerBounding(b *testing.B) {
	q := phaseQuery(b, 1)
	q.gridMapping()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.lowerBounding()
	}
}

func BenchmarkPhaseUpperBounding(b *testing.B) {
	// Adjacency bitsets memoise inside the grid, and the engine caches
	// the bounds, so rebuild both per iteration to measure the true
	// first-query cost; report with the build excluded via timer
	// control. The threshold is set as bound() sets it, so the count
	// bound prunes what a query's would; cells-read/op is AdjComputed.
	b.ReportAllocs()
	cells := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q := phaseQuery(b, 1)
		q.gridMapping()
		q.lowerBounding()
		q.threshold = q.kthHighest(q.tauLow)
		b.StartTimer()
		q.computeUpperBounds()
		q.assembleCandidates(q.threshold)
		cells += q.stats.AdjComputed
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells-read/op")
}

func BenchmarkPhaseVerificationExactScore(b *testing.B) {
	q := phaseQuery(b, 1)
	q.gridMapping()
	q.lowerBounding()
	q.computeUpperBounds()
	bOi := bitmap.NewScratch(q.n)
	mask := bitmap.NewScratch(q.n)
	ctr := ctrSet{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.exactScore(i%q.n, bOi, mask, &ctr)
	}
}

func BenchmarkPhaseAdjacencyUnion(b *testing.B) {
	q := phaseQuery(b, 1)
	q.gridMapping()
	large := q.idx.large
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Radius-1 unions without memoisation effects.
		large.ComputeAdjRadius(large.Key(i%large.Len()), 1)
	}
}

// BenchmarkWorkloadBird is the benchmark's oneshot_bird workload as a
// Go benchmark, so its rung can be read and profiled without the
// harness: Bird at 1 000 × 50, a fresh engine per query, r drawn from
// the Kronecker sequence over [3, 9], k cycling 1..5. It reports the
// mean of each phase beside ns/op.
func BenchmarkWorkloadBird(b *testing.B) {
	ds := workloadBird()
	benchmarkStream(b, func(i int, u float64) (*Result, error) {
		eng, err := NewEngine(ds, Options{})
		if err != nil {
			return nil, err
		}
		return eng.RunTopK(3+6*u, 1+i%5)
	})
}

// BenchmarkWorkloadBirdTemporal is BenchmarkWorkloadBird's stream on the
// temporal engine: the same points stamped by data.WithTimestamps(·, 1,
// 100, 5), δ drawn from the same sequence over [2, 10].
func BenchmarkWorkloadBirdTemporal(b *testing.B) {
	ds := data.WithTimestamps(workloadBird(), 1, 100, 5)
	benchmarkStream(b, func(i int, u float64) (*Result, error) {
		eng, err := NewTemporalEngine(ds, Options{})
		if err != nil {
			return nil, err
		}
		return eng.RunTopK(3+6*u, 2+8*u, 1+i%5)
	})
}

// BenchmarkWorkloadNeuron2 is the engine stream of the benchmark's
// serve_solo_neuron2 workload, the one where verification does the
// work: Neuron-2 at 360 × 300, one long-lived engine, r drawn from the
// Kronecker sequence over [5, 8] (three ⌈r⌉ buckets), k cycling 1..5.
// It is warm by design, as the served workload is: after the first
// query of each ⌈r⌉ the engine takes τ^upp and the large grid from its
// cache. Beside the phase means it reports the distance computations
// per query and grid-hits/op, the share of queries that found their
// warm grid.
func BenchmarkWorkloadNeuron2(b *testing.B) {
	c := data.DefaultNeuron2()
	c.N, c.M = 360, 300
	eng, err := NewEngine(data.GenNeuron(c), Options{})
	if err != nil {
		b.Fatal(err)
	}
	distComps := 0
	benchmarkStream(b, func(i int, u float64) (*Result, error) {
		res, err := eng.RunTopK(5+3*u, 1+i%5)
		if err == nil {
			distComps += res.Stats.DistanceComps
		}
		return res, err
	})
	b.ReportMetric(float64(distComps)/float64(b.N), "dist-comps/op")
	b.ReportMetric(float64(eng.IndexCache().GridHits)/float64(b.N), "grid-hits/op")
}

// BenchmarkWarmGridMapping times the grid mapping of a warm-grid hit on
// BenchmarkWorkloadNeuron2's engine at r = 6.5: the small grid of the
// exact r beside the kept ⌈r⌉ = 7 grid (Engine.mapGrids), whose
// coordinates a query gathers only before its first walk. One query
// beforehand keeps the grid.
func BenchmarkWarmGridMapping(b *testing.B) {
	c := data.DefaultNeuron2()
	c.N, c.M = 360, 300
	eng, err := NewEngine(data.GenNeuron(c), Options{})
	if err != nil {
		b.Fatal(err)
	}
	const r = 6.5
	if _, err := eng.RunTopK(r, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.mapGrids(r, eng.ub, nil, nil, 0, nil)
	}
	if st := eng.IndexCache(); st.GridHits != uint64(b.N) {
		b.Fatalf("%d grid hits in %d mappings", st.GridHits, b.N)
	}
}

// BenchmarkSpatialOrder times the ordering pass NewEngine pays per
// engine (order.go) on the oneshot_bird dataset: centroids, Morton keys,
// the sort and the view.
func BenchmarkSpatialOrder(b *testing.B) {
	ds := workloadBird()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, orderSink = spatialOrder(ds)
	}
}

var orderSink idOrder

// BenchmarkWorkloadBirdDense is the rung at the paper's density: Bird at
// 10 000 × 50 on DefaultBird's field, one query per iteration at k = 1
// on a fresh engine, r = 4 and r = 8 as sub-benchmarks. One query takes
// about a second on one core, so -benchtime 1x is a useful run.
func BenchmarkWorkloadBirdDense(b *testing.B) {
	denseBird.once.Do(func() {
		c := data.DefaultBird()
		c.N, c.M = 10000, 50
		denseBird.ds = data.GenTrajectory(c)
	})
	for _, r := range []float64{4, 8} {
		b.Run(fmt.Sprintf("r=%g", r), func(b *testing.B) {
			benchmarkStream(b, func(int, float64) (*Result, error) {
				eng, err := NewEngine(denseBird.ds, Options{})
				if err != nil {
					return nil, err
				}
				return eng.RunTopK(r, 1)
			})
		})
	}
}

var denseBird struct {
	once sync.Once
	ds   *data.Dataset
}

// workloadBird is the oneshot_bird dataset: Bird at 1 000 × 50.
func workloadBird() *data.Dataset {
	c := data.DefaultBird()
	c.N, c.M = 1000, 50
	return data.GenTrajectory(c)
}

// benchmarkStream runs query i of a Kronecker stream, u = frac(i/φ), per
// iteration and reports the mean of each phase beside ns/op.
func benchmarkStream(b *testing.B, query func(i int, u float64) (*Result, error)) {
	var sum PhaseStats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, u := math.Modf(float64(i) * 0.6180339887498949)
		res, err := query(i, u)
		if err != nil {
			b.Fatal(err)
		}
		sum.GridMapping += res.Stats.GridMapping
		sum.LowerBounding += res.Stats.LowerBounding
		sum.UpperBounding += res.Stats.UpperBounding
		sum.Verification += res.Stats.Verification
	}
	perOp := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 / float64(b.N) }
	b.ReportMetric(perOp(sum.GridMapping), "grid-ms/op")
	b.ReportMetric(perOp(sum.LowerBounding), "lower-ms/op")
	b.ReportMetric(perOp(sum.UpperBounding), "upper-ms/op")
	b.ReportMetric(perOp(sum.Verification), "verify-ms/op")
}
