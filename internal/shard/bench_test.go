package shard

import (
	"context"
	"math"
	"testing"
	"time"

	"mio/internal/core"
	"mio/internal/data"
)

// BenchmarkWorkloadBird2Sharded is the engine stream of the benchmark's
// serve_sharded_bird2 workload, without the server: Bird-2 at 200 × 100
// over 4 in-process shards with hedging off, r drawn from the Kronecker
// sequence over [3, 9], k cycling 1..5, one caller. The shards' pools
// live across iterations as a server's do, so after the first query of
// each ⌈r⌉ every shard takes τ^upp from its cache, and its large grid
// when the shard's budget kept it. Beside ns/op and allocs/op it
// reports ms/op, and per query, summed over the shards, the distance
// computations and grid-hits/op, the shard queries that found their
// warm grid (at most 4).
func BenchmarkWorkloadBird2Sharded(b *testing.B) {
	c := data.DefaultBird2()
	c.N, c.M = 200, 100
	co, err := New(data.GenTrajectory(c), core.Options{}, Config{Shards: 4, HedgeAfter: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	distComps := 0
	b.ReportAllocs()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		_, u := math.Modf(float64(i) * 0.6180339887498949)
		res, rep, err := co.Query(context.Background(), 3+6*u, 1+i%5)
		if err != nil {
			b.Fatal(err)
		}
		if res.Degraded || rep.Failed != 0 {
			b.Fatalf("query %d degraded on a healthy cluster: %+v", i, rep)
		}
		distComps += res.Stats.DistanceComps
	}
	b.ReportMetric(float64(time.Since(t0).Microseconds())/1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(distComps)/float64(b.N), "dist-comps/op")
	b.ReportMetric(float64(co.IndexCache().GridHits)/float64(b.N), "grid-hits/op")
}

// BenchmarkBuildPartition is the partition's share of a sharded
// server's setup on serve_sharded_bird2's dataset: BuildPartition for
// Bird-2 at 200 × 100 over 4 shards with the default horizon, then the
// four ShardDataset calls that slice or copy the trimmed replicas. It
// reports the points the shards hold.
func BenchmarkBuildPartition(b *testing.B) {
	c := data.DefaultBird2()
	c.N, c.M = 200, 100
	ds := data.GenTrajectory(c)
	held := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := BuildPartition(ds, 4, DefaultMaxR)
		if err != nil {
			b.Fatal(err)
		}
		held = 0
		for s := 0; s < p.Shards; s++ {
			local, _ := p.ShardDataset(ds, s)
			for _, o := range local.Objects {
				held += len(o.Pts)
			}
		}
	}
	b.ReportMetric(float64(held), "shard-points")
}
