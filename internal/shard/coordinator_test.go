package shard

import (
	"context"
	"errors"
	"math"
	"testing"

	"mio/internal/core"
	"mio/internal/data"
	"mio/internal/geom"
)

func oracle(t *testing.T, ds *data.Dataset, r float64, k int) *core.Result {
	t.Helper()
	e, err := core.NewEngine(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunTopK(r, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameTopK(a, b []core.Scored) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParityWithOracle is the healthy-cluster acceptance gate: across a
// (shards, r, k) sweep the scatter–gather answer must be identical to
// the single-engine oracle — same objects, same scores, same tie
// order — and deterministic in its work accounting.
func TestParityWithOracle(t *testing.T) {
	ds := uniformDS(150, 11)
	for _, shards := range []int{2, 3, 4, 5} {
		c, err := New(ds, core.Options{}, Config{Shards: shards, MaxR: 8})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		// twin runs every query c runs, in the same order: the shard
		// engines' score memos make a query's work depend on the
		// queries before it, so only a cluster with the same history
		// must repeat c's counters.
		twin, err := New(ds, core.Options{}, Config{Shards: shards, MaxR: 8})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		query := func(r float64, k int) (*core.Result, *Report) {
			t.Helper()
			res, rep, err := c.Query(context.Background(), r, k)
			if err != nil {
				t.Fatalf("shards=%d r=%g k=%d: %v", shards, r, k, err)
			}
			tres, _, err := twin.Query(context.Background(), r, k)
			if err != nil {
				t.Fatalf("shards=%d r=%g k=%d twin: %v", shards, r, k, err)
			}
			if res.Stats.DistanceComps != tres.Stats.DistanceComps || res.Stats.Candidates != tres.Stats.Candidates || res.Stats.Verified != tres.Stats.Verified {
				t.Fatalf("shards=%d r=%g k=%d: counters not deterministic: {dc=%d cand=%d ver=%d}, twin {dc=%d cand=%d ver=%d}",
					shards, r, k, res.Stats.DistanceComps, res.Stats.Candidates, res.Stats.Verified,
					tres.Stats.DistanceComps, tres.Stats.Candidates, tres.Stats.Verified)
			}
			return res, rep
		}
		for _, r := range []float64{2, 4, 6} {
			for _, k := range []int{1, 3, 7} {
				want := oracle(t, ds, r, k)
				res, rep := query(r, k)
				if res.Degraded || rep.Degraded || rep.Failed != 0 {
					t.Fatalf("shards=%d r=%g k=%d: degraded on a healthy cluster: %+v", shards, r, k, rep)
				}
				if !sameTopK(res.TopK, want.TopK) {
					t.Fatalf("shards=%d r=%g k=%d: top-k mismatch\n got %v\nwant %v",
						shards, r, k, res.TopK, want.TopK)
				}
				if res.Best != want.Best {
					t.Fatalf("shards=%d r=%g k=%d: best %v, oracle %v", shards, r, k, res.Best, want.Best)
				}
				// Work accounting is deterministic (not oracle-equal:
				// each shard verifies down to its own cut, see
				// DESIGN.md §15.2), which query checked against twin;
				// a warm rerun answers identically and computes no
				// more distances.
				res2, _ := query(r, k)
				if !sameTopK(res2.TopK, res.TopK) || res2.Best != res.Best {
					t.Fatalf("shards=%d r=%g k=%d rerun: %v, first run %v", shards, r, k, res2.TopK, res.TopK)
				}
				if res2.Stats.DistanceComps > res.Stats.DistanceComps {
					t.Fatalf("shards=%d r=%g k=%d: the warm rerun computed %d distances, the first run %d",
						shards, r, k, res2.Stats.DistanceComps, res.Stats.DistanceComps)
				}
			}
		}
		waitSlots(t, c)
		waitSlots(t, twin)
	}
}

// TestParityTrimmedHalo: the shards hold trimmed replicas (checked:
// the partition drops replica points), and on trajectories and on 3-D
// arbors the scatter–gather answer is still the oracle's, bitwise, at
// a small r and at the horizon itself.
func TestParityTrimmedHalo(t *testing.T) {
	neuron := data.DefaultNeuron2()
	neuron.N, neuron.M, neuron.FieldSize, neuron.ClusterStd = 40, 80, 40, 6
	const maxR = 8
	for _, tc := range []struct {
		name string
		ds   *data.Dataset
	}{
		{"bird2", bird2DS(80)},
		{"neuron2", data.GenNeuron(neuron)},
	} {
		p, err := BuildPartition(tc.ds, 4, maxR)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		full, held := 0, 0
		for s := 0; s < p.Shards; s++ {
			local, _ := p.ShardDataset(tc.ds, s)
			for l, g := range p.Members[s] {
				full += len(tc.ds.Objects[g].Pts)
				held += len(local.Objects[l].Pts)
			}
		}
		if held >= full {
			t.Fatalf("%s: the shards hold %d points, their members' full point sets %d: nothing trimmed", tc.name, held, full)
		}
		t.Logf("%s: shards hold %d points of their members' %d (dataset: %d objects)", tc.name, held, full, tc.ds.N())

		// Both lower-bounding loops skip the replicas: the serial one
		// (eachObject) and, with workers, PARALLEL-LOWER-BOUNDING.
		for _, opts := range []core.Options{{}, {Workers: 2, LB: core.LBHashP}} {
			c, err := New(tc.ds, opts, Config{Shards: 4, MaxR: maxR})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for _, r := range []float64{2.5, maxR} {
				for _, k := range []int{1, 5} {
					want := oracle(t, tc.ds, r, k)
					res, rep, err := c.Query(context.Background(), r, k)
					if err != nil {
						t.Fatalf("%s workers=%d r=%g k=%d: %v", tc.name, opts.Workers, r, k, err)
					}
					if res.Degraded || rep.Failed != 0 {
						t.Fatalf("%s workers=%d r=%g k=%d: degraded on a healthy cluster: %+v", tc.name, opts.Workers, r, k, rep)
					}
					if !sameTopK(res.TopK, want.TopK) || res.Best != want.Best {
						t.Fatalf("%s workers=%d r=%g k=%d: got %v (best %v), oracle %v (best %v)",
							tc.name, opts.Workers, r, k, res.TopK, res.Best, want.TopK, want.Best)
					}
				}
			}
			waitSlots(t, c)
			c.Close()
		}
	}
}

// skewedDS builds a dataset with a dense cluster in one corner and
// isolated objects scattered far away: the shards that inherit the
// sparse half have upper bounds far below the dense shard's lower
// bounds, so the coordinator can prune them before verification.
func skewedDS() *data.Dataset {
	dense := data.GenUniform(data.UniformConfig{N: 40, M: 6, FieldSize: 8, Spread: 2, Seed: 1})
	sparse := data.GenUniform(data.UniformConfig{N: 40, M: 6, FieldSize: 2000, Spread: 2, Seed: 2})
	ds := &data.Dataset{Name: "skewed"}
	for _, o := range dense.Objects {
		ds.Objects = append(ds.Objects, data.Object{ID: len(ds.Objects), Pts: o.Pts, Times: o.Times})
	}
	for _, o := range sparse.Objects {
		pts := make([]geom.Point, len(o.Pts))
		for i, p := range o.Pts {
			pts[i] = geom.Pt(p.X+3000, p.Y, p.Z)
		}
		ds.Objects = append(ds.Objects, data.Object{ID: len(ds.Objects), Pts: pts, Times: o.Times})
	}
	return ds
}

// TestShardPruning: on skewed data the bound merge must eliminate
// whole shards before verification, and still answer exactly.
func TestShardPruning(t *testing.T) {
	ds := skewedDS()
	c, err := New(ds, core.Options{}, Config{Shards: 4, MaxR: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, ds, 3, 1)
	res, rep, err := c.Query(context.Background(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pruned == 0 {
		t.Fatalf("no shards pruned on skewed data: %+v", rep)
	}
	if res.Degraded || !sameTopK(res.TopK, want.TopK) {
		t.Fatalf("pruned run wrong: got %v (degraded=%v), want %v", res.TopK, res.Degraded, want.TopK)
	}
	for _, run := range rep.PerShard {
		if run.State == StatePruned && run.MaxUB >= rep.Floor {
			t.Fatalf("shard %d pruned with MaxUB %d ≥ floor %d", run.ID, run.MaxUB, rep.Floor)
		}
	}
	waitSlots(t, c)
}

func TestBeyondHorizon(t *testing.T) {
	c, err := New(uniformDS(40, 2), core.Options{}, Config{Shards: 2, MaxR: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(context.Background(), 9, 1); !errors.Is(err, ErrBeyondHorizon) {
		t.Fatalf("r beyond horizon returned %v", err)
	}
	if _, _, err := c.Query(context.Background(), -1, 1); err == nil {
		t.Fatal("accepted negative r")
	}
	if _, _, err := c.Query(context.Background(), 2, 0); err == nil {
		t.Fatal("accepted k=0")
	}
}

func TestHealthSnapshot(t *testing.T) {
	c, err := New(uniformDS(50, 4), core.Options{}, Config{Shards: 3, MaxR: 6})
	if err != nil {
		t.Fatal(err)
	}
	hs := c.Health()
	if len(hs) != 3 {
		t.Fatalf("got %d health rows", len(hs))
	}
	objs := 0
	for i, h := range hs {
		if h.ID != i {
			t.Fatalf("health rows out of order: %+v", hs)
		}
		if h.Breaker != "closed" {
			t.Fatalf("shard %d breaker %q at rest", i, h.Breaker)
		}
		objs += h.Primaries
	}
	if objs != 50 {
		t.Fatalf("health primaries sum to %d, want 50", objs)
	}
}

// TestInvalidQueryIsNotAShardFailure: an r too small for the shards'
// cell keys is refused by every shard engine. That is the caller's
// error, returned as such — no retry, no breaker charge, no health
// note — so the next valid query is answered exactly, not refused by
// breakers the bad ones tripped. Each bad r is asked
// DefaultBreakThreshold times: enough to open a breaker that charged
// them.
func TestInvalidQueryIsNotAShardFailure(t *testing.T) {
	ds := uniformDS(60, 5)
	c, err := New(ds, core.Options{}, Config{Shards: 3, MaxR: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < DefaultBreakThreshold; i++ {
		for _, r := range []float64{1e-12, math.NaN()} {
			if _, _, err := c.Query(context.Background(), r, 1); !errors.Is(err, core.ErrInvalidQuery) {
				t.Fatalf("r=%g: err = %v, want core.ErrInvalidQuery", r, err)
			}
		}
	}
	for _, h := range c.Health() {
		if h.Breaker != "closed" || h.LastError != "" {
			t.Errorf("shard %d after invalid queries: breaker %q, last error %q", h.ID, h.Breaker, h.LastError)
		}
	}
	if got := c.Metrics().Retries.Value(); got != 0 {
		t.Errorf("invalid queries were retried %d times", got)
	}
	res, _, err := c.Query(context.Background(), 4, 2)
	if err != nil || res.Degraded || !sameTopK(res.TopK, oracle(t, ds, 4, 2).TopK) {
		t.Fatalf("valid query after invalid ones: res=%+v err=%v", res, err)
	}
	waitSlots(t, c)
}
