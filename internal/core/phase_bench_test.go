package core

// Phase-level benchmarks: one per pipeline stage, for profiling and
// performance-regression tracking. The root bench_test.go covers the
// paper's end-to-end tables; these isolate the internals.

import (
	"sync"
	"testing"

	"mio/internal/bitmap"
	"mio/internal/data"
	"mio/internal/grid"
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
	for i := 0; i < b.N; i++ {
		q := phaseQuery(b, 1)
		q.gridMapping()
	}
}

func BenchmarkPhaseGridMappingParallel(b *testing.B) {
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
	// Adjacency bitsets memoise inside the grid, so rebuild per
	// iteration to measure the true first-query cost; report with the
	// build excluded via timer control.
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q := phaseQuery(b, 1)
		q.gridMapping()
		q.lowerBounding()
		b.StartTimer()
		q.computeUpperBounds()
		q.assembleCandidates(0)
	}
}

func BenchmarkPhaseVerificationExactScore(b *testing.B) {
	q := phaseQuery(b, 1)
	q.gridMapping()
	q.lowerBounding()
	q.computeUpperBounds()
	bOi := bitmap.NewScratch(q.n)
	mask := bitmap.NewScratch(q.n)
	ctr := ctrSet{}
	var neigh [27]grid.Key
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.exactScore(i%q.n, bOi, mask, neigh[:0], &ctr)
	}
}

func BenchmarkPhaseAdjacencyUnion(b *testing.B) {
	q := phaseQuery(b, 1)
	q.gridMapping()
	keys := make([]grid.Key, 0, 4096)
	q.idx.large.ForEach(func(k grid.Key, _ *grid.LargeCell) {
		if len(keys) < 4096 {
			keys = append(keys, k)
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Radius-1 unions without memoisation effects.
		q.idx.large.ComputeAdjRadius(keys[i%len(keys)], 1)
	}
}
