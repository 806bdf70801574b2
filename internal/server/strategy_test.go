package server

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"mio/internal/core"
	"mio/internal/fault"
	"mio/internal/shard"
)

// TestConfigValidate: Shards and ShardAddrs each pick what answers
// /v1/query, so the two together are refused — by Validate and
// therefore by New — and remote sharding needs two workers.
func TestConfigValidate(t *testing.T) {
	addrs := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"solo", Config{}, true},
		{"shards", Config{Shards: 2}, true},
		{"remote shards", Config{ShardAddrs: addrs}, true},
		{"shards+remote", Config{Shards: 2, ShardAddrs: addrs}, false},
		{"one remote worker", Config{ShardAddrs: addrs[:1]}, false},
	} {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if !tc.ok {
			if _, nerr := New(testDataset(20, 3), core.Options{}, tc.cfg); nerr == nil || nerr.Error() != err.Error() {
				t.Errorf("%s: New() = %v, want Validate's %v", tc.name, nerr, err)
			}
		}
	}
}

// TestQueryStrategiesShareOnePath drives the one /v1/query handler
// pooled and sharded: the answer is the solo answer, the second ask is
// a cache hit carrying the same markers (the cached value keeps the
// scatter report), and a radius beyond the shard horizon falls back to
// the solo pool.
func TestQueryStrategiesShareOnePath(t *testing.T) {
	const url = "/v1/query?r=4&k=3"
	var want queryResponse
	if rec := get(t, newTestServer(t, Config{}).Handler(), url, &want); rec.Code != http.StatusOK {
		t.Fatalf("solo: status %d", rec.Code)
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		sharded bool
	}{
		{"solo", Config{}, false},
		{"sharded", Config{Shards: 2, ShardMaxR: 5}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.cfg)
			defer s.Drain()
			h := s.Handler()
			for ask, cached := range []bool{false, true} {
				var got queryResponse
				if rec := get(t, h, url, &got); rec.Code != http.StatusOK {
					t.Fatalf("ask %d: status %d: %s", ask, rec.Code, rec.Body)
				}
				if got.Cached != cached || got.Sharded != tc.sharded || (got.Scatter != nil) != tc.sharded {
					t.Errorf("ask %d: cached=%v sharded=%v scatter=%v", ask, got.Cached, got.Sharded, got.Scatter != nil)
				}
				if !reflect.DeepEqual(got.Result.TopK, want.Result.TopK) {
					t.Errorf("ask %d: top-k %v, solo says %v", ask, got.Result.TopK, want.Result.TopK)
				}
			}
			if s.pool.Idle() != s.pool.Cap() {
				t.Errorf("engine pool leaked: %d of %d idle", s.pool.Idle(), s.pool.Cap())
			}
		})
	}

	s := newTestServer(t, Config{Shards: 2, ShardMaxR: 5})
	defer s.Drain()
	var far, soloFar queryResponse
	get(t, s.Handler(), "/v1/query?r=6&k=2", &far)
	get(t, newTestServer(t, Config{}).Handler(), "/v1/query?r=6&k=2", &soloFar)
	if far.Sharded || far.Scatter != nil || far.Result == nil || !reflect.DeepEqual(far.Result.TopK, soloFar.Result.TopK) {
		t.Errorf("r beyond the horizon: sharded=%v result=%+v, want the solo pool's %+v", far.Sharded, far.Result, soloFar.Result)
	}
}

// TestUnanswerableThresholdIsBadRequest: an r the engines refuse (NaN,
// or so small that cell keys leave int32) is the client's error under
// every strategy. It must be a 400 before it reaches a shard — there
// each refusal used to be charged to the shard's breaker, so enough of
// them made the next valid request a 503 — and must leave the pool
// whole. Each refusal is asked shard.DefaultBreakThreshold times, enough
// to open a breaker that charged it.
func TestUnanswerableThresholdIsBadRequest(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"solo", Config{}},
		{"sharded", Config{Shards: 2, ShardMaxR: 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.cfg)
			defer s.Drain()
			h := s.Handler()
			for i := 0; i < shard.DefaultBreakThreshold; i++ {
				for _, url := range []string{
					"/v1/query?r=1e-12&k=1",
					"/v1/query?r=NaN",
					"/v1/interacting?r=1e-12&obj=0",
					"/v1/scores?r=1e-12",
					"/v1/sweep?rs=4,1e-12",
				} {
					if rec := get(t, h, url, nil); rec.Code != http.StatusBadRequest {
						t.Errorf("%s: status %d, want 400: %s", url, rec.Code, rec.Body)
					}
				}
			}
			var got queryResponse
			if rec := get(t, h, "/v1/query?r=4&k=3", &got); rec.Code != http.StatusOK || got.Result == nil || got.Result.Degraded {
				t.Errorf("valid query after the refusals: status %d, body %s", rec.Code, rec.Body)
			}
			if s.pool.Idle() != s.pool.Cap() {
				t.Errorf("engine pool leaked: %d of %d idle", s.pool.Idle(), s.pool.Cap())
			}
		})
	}
	if got := (&Server{}).statusFor(fmt.Errorf("shard 1: %w", core.ErrInvalidQuery)); got != http.StatusBadRequest {
		t.Errorf("statusFor(ErrInvalidQuery) = %d, want 400", got)
	}
}

// TestShardedSwap swaps the dataset under a sharded server. Sharded and
// solo answers match a fresh engine on the new dataset, /healthz
// reports the new partition, the shards' counters carry over from the
// old coordinator, and no slot leaks from the solo pool or from any
// shard's, old or new.
func TestShardedSwap(t *testing.T) {
	reg := fault.New(1)
	s, err := New(testDataset(80, 7), core.Options{}, Config{Shards: 2, ShardMaxR: 5, Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	h := s.Handler()
	// Failing shard attempts move the counters that must carry over.
	reg.Arm(fault.Rule{Point: fault.PointShardRun, Kind: fault.KindError, P: 1})
	get(t, h, "/v1/query?r=4&k=3", nil)
	reg.Clear(fault.PointShardRun)
	var before MetricsSnapshot
	get(t, h, "/metrics", &before)
	if before.Shards.RetriesTotal == 0 || before.Shards.MergeLatency.Count == 0 {
		t.Fatalf("failing shards moved no counter: %+v", before.Shards)
	}

	old := s.coord.Load()
	ds := testDataset(120, 11)
	if err := s.SwapDataset(ds); err != nil {
		t.Fatal(err)
	}
	if s.coord.Load() == old {
		t.Fatal("the swap kept the old coordinator")
	}
	fresh, err := core.NewEngine(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct {
		r       float64
		sharded bool
	}{{4, true}, {6, false}} {
		want, err := fresh.RunTopK(q.r, 3)
		if err != nil {
			t.Fatal(err)
		}
		var got queryResponse
		if rec := get(t, h, fmt.Sprintf("/v1/query?r=%g&k=3", q.r), &got); rec.Code != http.StatusOK {
			t.Fatalf("r=%g after the swap: status %d: %s", q.r, rec.Code, rec.Body)
		}
		if got.Sharded != q.sharded || got.Result.Degraded || !reflect.DeepEqual(got.Result.TopK, want.TopK) {
			t.Errorf("r=%g after the swap: sharded=%v %+v, fresh engine %v", q.r, got.Sharded, got.Result, want.TopK)
		}
	}

	part, err := shard.BuildPartition(ds, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	get(t, h, "/healthz", &hr)
	if len(hr.Shards) != 2 {
		t.Fatalf("healthz after the swap: %d shards, want 2", len(hr.Shards))
	}
	for i, sh := range hr.Shards {
		if sh.Primaries != part.Primaries(i) || sh.Objects != len(part.Members[i]) || sh.Breaker != "closed" {
			t.Errorf("healthz shard %d after the swap: %+v, want %d primaries of %d objects, breaker closed",
				i, sh, part.Primaries(i), len(part.Members[i]))
		}
	}

	var after MetricsSnapshot
	get(t, h, "/metrics", &after)
	// One sharded query since: one more merge, no more retries.
	if a, b := after.Shards, before.Shards; a.RetriesTotal != b.RetriesTotal || a.DownsTotal != b.DownsTotal ||
		a.MergeLatency.Count != b.MergeLatency.Count+1 {
		t.Errorf("shard counters after the swap %+v, before %+v", a, b)
	}

	if s.pool.Idle() != s.pool.Cap() {
		t.Errorf("solo pool leaked: %d of %d idle", s.pool.Idle(), s.pool.Cap())
	}
	for name, co := range map[string]*shard.Coordinator{"old": old, "new": s.coord.Load()} {
		if idle, total := co.IdleSlots(); idle != total || total == 0 {
			t.Errorf("%s coordinator leaked shard slots: %d of %d idle", name, idle, total)
		}
	}
}
