package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mio/internal/core"
	"mio/internal/data"
	"mio/internal/durable"
	"mio/internal/fault"
	"mio/internal/shard"
)

// ---------- harness ----------

// startWorker stands one shard worker up behind an httptest server,
// optionally wrapping its handler (hostile-response tests).
func startWorker(t *testing.T, ds *data.Dataset, idx, shards int, maxR float64, wcfg WorkerConfig, wrap func(http.Handler) http.Handler) (*Worker, *httptest.Server) {
	t.Helper()
	wcfg.Index, wcfg.Shards, wcfg.MaxR = idx, shards, maxR
	w, err := NewWorker(ds, core.Options{}, wcfg)
	if err != nil {
		t.Fatalf("NewWorker(%d/%d): %v", idx, shards, err)
	}
	h := http.Handler(w.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() { srv.Close(); w.Close() })
	return w, srv
}

// remoteCluster builds a full remote coordinator: one worker+server per
// shard, one hardened client per worker, assembled via NewWithBackends.
// wraps[i] mangles worker i's handler; tweak edits client i's config.
func remoteCluster(t *testing.T, ds *data.Dataset, shards int, maxR float64, cfg shard.Config,
	wraps map[int]func(http.Handler) http.Handler, tweak func(i int, cc *ClientConfig)) *shard.Coordinator {
	t.Helper()
	gen := Generation(Fingerprint(ds), shards, maxR)
	backends := make([]shard.Backend, shards)
	for i := 0; i < shards; i++ {
		_, srv := startWorker(t, ds, i, shards, maxR, WorkerConfig{}, wraps[i])
		cc := ClientConfig{
			Addr:    srv.URL,
			Stamp:   Stamp{Generation: gen, Shard: i, Shards: shards},
			Objects: ds.N(),
		}
		if tweak != nil {
			tweak(i, &cc)
		}
		backends[i] = NewClient(cc)
	}
	cfg.MaxR = maxR
	co, err := shard.NewWithBackends(backends, ds.N(), cfg)
	if err != nil {
		t.Fatalf("NewWithBackends: %v", err)
	}
	t.Cleanup(co.Close)
	return co
}

// waitAllUp waits until the prober has seen every worker of co up.
func waitAllUp(t *testing.T, co *shard.Coordinator) {
	t.Helper()
	waitFor(t, 2*time.Second, "every worker probed up", func() bool {
		for _, h := range co.Health() {
			if h.State != shard.ProbeUp {
				return false
			}
		}
		return true
	})
}

func oracleRun(t *testing.T, ds *data.Dataset, r float64, k int) *core.Result {
	t.Helper()
	e, err := core.NewEngine(ds, core.Options{})
	if err != nil {
		t.Fatalf("oracle engine: %v", err)
	}
	res, err := e.RunTopK(r, k)
	if err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	return res
}

func sameScored(a, b []core.Scored) bool {
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

// mangleBound rewrites the body of every 200 bound response; other
// paths (probes, complete, release) pass through untouched.
func mangleBound(f func(body []byte) []byte) func(http.Handler) http.Handler {
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != PathBound {
				inner.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK {
				body = f(body)
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(body)
		})
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// ---------- healthy-cluster parity ----------

// TestRemoteParityWithOracle is the acceptance sweep: a healthy
// multi-process cluster must answer bitwise-identically to the
// in-process sharded coordinator — deterministic work counters
// included — and exactly match the single-engine oracle. Both clusters
// start fresh and run the same queries in the same order: the shard
// engines' score memos make a query's work depend on the queries
// before it.
func TestRemoteParityWithOracle(t *testing.T) {
	ds := uniformDS(160, 1)
	const maxR = 8.0
	ctx := context.Background()
	for _, shards := range []int{2, 3} {
		local, err := shard.New(ds, core.Options{}, shard.Config{Shards: shards, MaxR: maxR})
		if err != nil {
			t.Fatalf("shards=%d: local coordinator: %v", shards, err)
		}
		rem := remoteCluster(t, ds, shards, maxR, shard.Config{}, nil, nil)
		for _, r := range []float64{2, 4} {
			for _, k := range []int{1, 3, 7} {
				want := oracleRun(t, ds, r, k)
				lres, _, lerr := local.Query(ctx, r, k)
				if lerr != nil {
					t.Fatalf("shards=%d r=%g k=%d: local query: %v", shards, r, k, lerr)
				}
				rres, rrep, rerr := rem.Query(ctx, r, k)
				if rerr != nil {
					t.Fatalf("shards=%d r=%g k=%d: remote query: %v", shards, r, k, rerr)
				}
				if rres.Degraded || rrep.Failed != 0 {
					t.Fatalf("shards=%d r=%g k=%d: healthy cluster degraded: %+v", shards, r, k, rrep)
				}
				if !sameScored(rres.TopK, want.TopK) {
					t.Errorf("shards=%d r=%g k=%d: TopK %v != oracle %v", shards, r, k, rres.TopK, want.TopK)
				}
				if rres.Best != want.Best {
					t.Errorf("shards=%d r=%g k=%d: Best %v != oracle %v", shards, r, k, rres.Best, want.Best)
				}
				// The transport must not change the computation: the
				// deterministic work counters match the in-process
				// sharded run exactly.
				if rres.Stats.DistanceComps != lres.Stats.DistanceComps ||
					rres.Stats.Candidates != lres.Stats.Candidates ||
					rres.Stats.Verified != lres.Stats.Verified {
					t.Errorf("shards=%d r=%g k=%d: work counters diverge: remote {dc=%d cand=%d ver=%d} local {dc=%d cand=%d ver=%d}",
						shards, r, k,
						rres.Stats.DistanceComps, rres.Stats.Candidates, rres.Stats.Verified,
						lres.Stats.DistanceComps, lres.Stats.Candidates, lres.Stats.Verified)
				}
				// A warm rerun answers identically and computes no more
				// distances, on both clusters alike.
				lres2, _, lerr2 := local.Query(ctx, r, k)
				rres2, _, rerr2 := rem.Query(ctx, r, k)
				if lerr2 != nil || rerr2 != nil {
					t.Fatalf("shards=%d r=%g k=%d: rerun: local %v, remote %v", shards, r, k, lerr2, rerr2)
				}
				if !sameScored(rres2.TopK, rres.TopK) || rres2.Best != rres.Best {
					t.Errorf("shards=%d r=%g k=%d: remote rerun TopK %v, first run %v", shards, r, k, rres2.TopK, rres.TopK)
				}
				if rres2.Stats.DistanceComps > rres.Stats.DistanceComps || rres2.Stats.DistanceComps != lres2.Stats.DistanceComps {
					t.Errorf("shards=%d r=%g k=%d: rerun DistanceComps remote %d, local %d, first run %d",
						shards, r, k, rres2.Stats.DistanceComps, lres2.Stats.DistanceComps, rres.Stats.DistanceComps)
				}
			}
		}
	}
}

// TestRemoteHealth: /healthz's per-shard rows carry the remote
// transport's identity — address, expected generation, prober state.
func TestRemoteHealth(t *testing.T) {
	ds := uniformDS(80, 2)
	const maxR = 8.0
	co := remoteCluster(t, ds, 2, maxR, shard.Config{}, nil, nil)
	gen := Generation(Fingerprint(ds), 2, maxR)
	waitAllUp(t, co)
	for _, h := range co.Health() {
		if h.Addr == "" {
			t.Errorf("shard %d: no addr in health row", h.ID)
		}
		if h.Generation != gen {
			t.Errorf("shard %d: health generation %d, want %d", h.ID, h.Generation, gen)
		}
		if h.Objects <= 0 {
			t.Errorf("shard %d: health objects %d, want > 0 (from /shardz)", h.ID, h.Objects)
		}
	}
}

// TestRemoteInvalidQuery: a worker answers 400 to an r its engines
// refuse, and the coordinator hands that back as the caller's error —
// the worker stays up in the prober's eyes, no breaker opens, and the
// next valid query is exact. Once the first probes are in, the bad r is
// asked back to back as many times as it takes to mark a worker down
// (downAfter) and to open a breaker (shard.DefaultBreakThreshold) that
// counted it.
func TestRemoteInvalidQuery(t *testing.T) {
	ds := uniformDS(80, 2)
	co := remoteCluster(t, ds, 2, 8, shard.Config{}, nil, nil)
	waitAllUp(t, co)
	for i := 0; i < max(downAfter, shard.DefaultBreakThreshold); i++ {
		if _, _, err := co.Query(context.Background(), 1e-12, 1); !errors.Is(err, core.ErrInvalidQuery) {
			t.Fatalf("r=1e-12: err = %v, want core.ErrInvalidQuery", err)
		}
	}
	for _, h := range co.Health() {
		if h.State == shard.ProbeDown || h.Breaker != "closed" || h.LastError != "" {
			t.Errorf("shard %d after an invalid query: state %q, breaker %q, last error %q", h.ID, h.State, h.Breaker, h.LastError)
		}
	}
	res, _, err := co.Query(context.Background(), 4, 2)
	if err != nil || res.Degraded || !sameScored(res.TopK, oracleRun(t, ds, 4, 2).TopK) {
		t.Fatalf("valid query after the invalid one: res=%+v err=%v", res, err)
	}
}

// ---------- hostile responses ----------

// TestHostileResponsesDegrade is satellite 3's table: every class of
// broken worker response must turn into shard-down degradation — a
// 200-path answer whose certified interval contains the oracle score —
// and never a panic or a silent merge of unvalidated data.
func TestHostileResponsesDegrade(t *testing.T) {
	ds := uniformDS(120, 4)
	const (
		shards = 3
		maxR   = 8.0
		r      = 3.0
		k      = 3
	)
	gen := Generation(Fingerprint(ds), shards, maxR)
	stamp := Stamp{Generation: gen, Shard: 1, Shards: shards}
	seal := func(resp BoundResponse) []byte {
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return durable.Seal(b)
	}
	want := oracleRun(t, ds, r, k)

	cases := []struct {
		name      string
		mangle    func(body []byte) []byte
		wantStale bool
		wantBad   bool
	}{
		{
			name:    "truncated envelope",
			mangle:  func(b []byte) []byte { return b[:len(b)/2] },
			wantBad: true,
		},
		{
			name: "corrupted payload byte",
			mangle: func(b []byte) []byte {
				out := append([]byte(nil), b...)
				out[durable.EnvelopeOverhead] ^= 0x20
				return out
			},
			wantBad: true,
		},
		{
			name:    "bare JSON without envelope",
			mangle:  func([]byte) []byte { return []byte(`{"stamp":{},"handle":1}`) },
			wantBad: true,
		},
		{
			name:    "unknown fields",
			mangle:  func([]byte) []byte { return durable.Seal([]byte(`{"bogus":true}`)) },
			wantBad: true,
		},
		{
			name: "duplicate object ids",
			mangle: func([]byte) []byte {
				return seal(BoundResponse{Stamp: stamp, Handle: 9,
					TopLBs: []core.Scored{{Obj: 5, Score: 4}, {Obj: 5, Score: 2}}, MaxUB: 10})
			},
			wantBad: true,
		},
		{
			name: "canonical order broken",
			mangle: func([]byte) []byte {
				return seal(BoundResponse{Stamp: stamp, Handle: 9,
					TopLBs: []core.Scored{{Obj: 2, Score: 3}, {Obj: 9, Score: 5}}, MaxUB: 10})
			},
			wantBad: true,
		},
		{
			name: "object id out of range",
			mangle: func([]byte) []byte {
				return seal(BoundResponse{Stamp: stamp, Handle: 9,
					TopLBs: []core.Scored{{Obj: ds.N(), Score: 3}}, MaxUB: 10})
			},
			wantBad: true,
		},
		{
			name: "score outside [0,n-1]",
			mangle: func([]byte) []byte {
				return seal(BoundResponse{Stamp: stamp, Handle: 9,
					TopLBs: []core.Scored{{Obj: 3, Score: ds.N()}}, MaxUB: ds.N() - 1})
			},
			wantBad: true,
		},
		{
			// The worker's own answer, valid but for trailing JSON
			// whitespace past the cap: only the cap refuses it.
			name: "oversized response",
			mangle: func(b []byte) []byte {
				payload, err := durable.Open(b)
				if err != nil {
					t.Error(err)
				}
				return durable.Seal(append(payload, bytes.Repeat([]byte{' '}, maxResponseBytes)...))
			},
			wantBad: true,
		},
		{
			name: "stale generation",
			mangle: func([]byte) []byte {
				st := stamp
				st.Generation++
				return seal(BoundResponse{Stamp: st, Handle: 9,
					TopLBs: []core.Scored{{Obj: 3, Score: 4}}, MaxUB: 10})
			},
			wantStale: true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			co := remoteCluster(t, ds, shards, maxR, shard.Config{},
				map[int]func(http.Handler) http.Handler{1: mangleBound(tc.mangle)}, nil)
			res, rep, err := co.Query(context.Background(), r, k)
			if err != nil {
				t.Fatalf("query must degrade, not fail: %v", err)
			}
			if !res.Degraded || res.Interval == nil {
				t.Fatalf("hostile shard did not degrade the result: %+v", rep)
			}
			if rep.PerShard[1].State != shard.StateDown {
				t.Fatalf("hostile shard state %q, want %q (err: %s)",
					rep.PerShard[1].State, shard.StateDown, rep.PerShard[1].Err)
			}
			if res.Interval.LB > want.Best.Score || want.Best.Score > res.Interval.UB {
				t.Fatalf("certified interval [%d,%d] does not contain oracle score %d",
					res.Interval.LB, res.Interval.UB, want.Best.Score)
			}
			// Degraded partial answers must still be true scores: no
			// unvalidated data leaked into the merge.
			if res.Best.Score > want.Best.Score {
				t.Fatalf("degraded best %v exceeds oracle best %v — hostile data merged", res.Best, want.Best)
			}
			m := co.Metrics()
			if tc.wantStale && m.Stale.Value() == 0 {
				t.Error("stale-generation rejection not counted in Metrics.Stale")
			}
			if tc.wantBad && m.Bad.Value() == 0 {
				t.Error("invalid-response rejection not counted in Metrics.Bad")
			}
			// The healthy shards still answer exactly for their
			// primaries on the next query too — the cluster keeps
			// serving.
			if _, _, err := co.Query(context.Background(), r, k); err != nil {
				t.Fatalf("second query after degradation failed: %v", err)
			}
		})
	}
}

// TestRejectedBoundReleasesHandle: a bound response the client
// rejects still names a paused phase the worker holds, with an engine
// slot. The client releases every handle it can read, so the worker
// holds none afterwards: for a stale stamp, a body that fails
// validation and one strict decoding refuses.
func TestRejectedBoundReleasesHandle(t *testing.T) {
	ds := uniformDS(120, 4)
	const (
		shards = 3
		maxR   = 8.0
	)
	// edit rewrites the worker's own response, handle kept.
	edit := func(f func(resp map[string]any)) func([]byte) []byte {
		return func(b []byte) []byte {
			payload, err := durable.Open(b)
			if err != nil {
				t.Error(err)
				return b
			}
			var resp map[string]any
			if err := json.Unmarshal(payload, &resp); err != nil {
				t.Error(err)
				return b
			}
			f(resp)
			out, err := json.Marshal(resp)
			if err != nil {
				t.Error(err)
			}
			return durable.Seal(out)
		}
	}
	cases := map[string]func([]byte) []byte{
		"stale generation": edit(func(resp map[string]any) {
			resp["stamp"].(map[string]any)["generation"] = 1 + resp["stamp"].(map[string]any)["generation"].(float64)
		}),
		"max_ub out of range": edit(func(resp map[string]any) { resp["max_ub"] = -1 }),
		"unknown field":       edit(func(resp map[string]any) { resp["bogus"] = true }),
	}
	for name, mangle := range cases {
		t.Run(name, func(t *testing.T) {
			w, srv := startWorker(t, ds, 1, shards, maxR, WorkerConfig{}, mangleBound(mangle))
			c := NewClient(ClientConfig{
				Addr:    srv.URL,
				Stamp:   Stamp{Generation: Generation(Fingerprint(ds), shards, maxR), Shard: 1, Shards: shards},
				Objects: ds.N(),
			})
			defer c.Close()
			if _, err := c.Bound(context.Background(), 3, 2); err == nil {
				t.Fatal("the mangled bound response was accepted")
			}
			waitFor(t, 2*time.Second, "the worker to hold no handle", func() bool {
				w.mu.Lock()
				defer w.mu.Unlock()
				return len(w.handles) == 0
			})
		})
	}
}

// ---------- injected transport faults ----------

// TestFaultPointsDegrade drives the four new injection points through
// the -faults flag syntax and checks each one degrades the shard
// instead of failing or poisoning the query.
func TestFaultPointsDegrade(t *testing.T) {
	ds := uniformDS(100, 5)
	const (
		shards = 3
		maxR   = 8.0
		r      = 3.0
		k      = 2
	)
	want := oracleRun(t, ds, r, k)

	check := func(t *testing.T, co *shard.Coordinator, reg *fault.Registry, point string, wantCounter func(*shard.Metrics) uint64) {
		t.Helper()
		res, rep, err := co.Query(context.Background(), r, k)
		if err != nil {
			t.Fatalf("query must degrade, not fail: %v", err)
		}
		if !res.Degraded || res.Interval == nil {
			t.Fatalf("fault at %s did not degrade: %+v", point, rep)
		}
		if res.Interval.LB > want.Best.Score || want.Best.Score > res.Interval.UB {
			t.Fatalf("interval [%d,%d] misses oracle score %d", res.Interval.LB, res.Interval.UB, want.Best.Score)
		}
		if reg.Fired(point) == 0 {
			t.Fatalf("injection point %s never fired", point)
		}
		if wantCounter != nil && wantCounter(co.Metrics()) == 0 {
			t.Errorf("fault at %s not counted in coordinator metrics", point)
		}
	}

	t.Run("client net_send", func(t *testing.T) {
		reg, err := fault.Parse(fault.PointNetSend + "=error:1")
		if err != nil {
			t.Fatal(err)
		}
		co := remoteCluster(t, ds, shards, maxR, shard.Config{}, nil, func(i int, cc *ClientConfig) {
			if i == 1 {
				cc.Faults = reg
			}
		})
		check(t, co, reg, fault.PointNetSend, nil)
	})

	t.Run("client net_recv", func(t *testing.T) {
		reg, err := fault.Parse(fault.PointNetRecv + "=error:1")
		if err != nil {
			t.Fatal(err)
		}
		co := remoteCluster(t, ds, shards, maxR, shard.Config{}, nil, func(i int, cc *ClientConfig) {
			if i == 1 {
				cc.Faults = reg
			}
		})
		check(t, co, reg, fault.PointNetRecv, nil)
	})

	t.Run("worker net_corrupt", func(t *testing.T) {
		reg, err := fault.Parse(fault.PointNetCorrupt + "=error:1")
		if err != nil {
			t.Fatal(err)
		}
		gen := Generation(Fingerprint(ds), shards, maxR)
		backends := make([]shard.Backend, shards)
		for i := 0; i < shards; i++ {
			wcfg := WorkerConfig{}
			if i == 1 {
				wcfg.Faults = reg
			}
			_, srv := startWorker(t, ds, i, shards, maxR, wcfg, nil)
			backends[i] = NewClient(ClientConfig{
				Addr:    srv.URL,
				Stamp:   Stamp{Generation: gen, Shard: i, Shards: shards},
				Objects: ds.N(),
			})
		}
		co, err := shard.NewWithBackends(backends, ds.N(), shard.Config{MaxR: maxR})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(co.Close)
		check(t, co, reg, fault.PointNetCorrupt, func(m *shard.Metrics) uint64 { return m.Bad.Value() })
	})

	t.Run("worker stale_gen", func(t *testing.T) {
		reg, err := fault.Parse(fault.PointStaleGen + "=error:1")
		if err != nil {
			t.Fatal(err)
		}
		gen := Generation(Fingerprint(ds), shards, maxR)
		backends := make([]shard.Backend, shards)
		var flapping *Client
		for i := 0; i < shards; i++ {
			wcfg := WorkerConfig{}
			if i == 1 {
				wcfg.Faults = reg
			}
			_, srv := startWorker(t, ds, i, shards, maxR, wcfg, nil)
			c := NewClient(ClientConfig{
				Addr:    srv.URL,
				Stamp:   Stamp{Generation: gen, Shard: i, Shards: shards},
				Objects: ds.N(),
			})
			if i == 1 {
				flapping = c
			}
			backends[i] = c
		}
		co, err := shard.NewWithBackends(backends, ds.N(), shard.Config{MaxR: maxR})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(co.Close)
		// A stale generation is not a transient: the first stale stamp —
		// here the prober's /shardz read — marks the worker down at once
		// instead of retrying it to death. Waiting for that fixes the
		// order: the query below never reaches the worker, and must be
		// counted as stale all the same. (The order where the query sees
		// the stamp first is the "stale generation" row of the
		// hostile-response table, whose /shardz stays healthy.)
		waitFor(t, 2*time.Second, "prober to see the stale stamp", func() bool {
			return flapping.Info().State == shard.ProbeDown
		})
		check(t, co, reg, fault.PointStaleGen, func(m *shard.Metrics) uint64 { return m.Stale.Value() })
		if st := flapping.Info().State; st != shard.ProbeDown {
			t.Errorf("stale worker state %q, want %q", st, shard.ProbeDown)
		}
	})
}

// ---------- prober lifecycle ----------

// deadSwitch wraps a handler with a kill switch: while dead, every
// request answers 502, probes included.
type deadSwitch struct {
	mu    sync.Mutex
	dead  bool
	inner http.Handler
}

func (d *deadSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	dead := d.dead
	d.mu.Unlock()
	if dead {
		http.Error(w, "gone", http.StatusBadGateway)
		return
	}
	d.inner.ServeHTTP(w, r)
}

func (d *deadSwitch) set(dead bool) {
	d.mu.Lock()
	d.dead = dead
	d.mu.Unlock()
}

// TestProberLifecycle: consecutive probe failures walk the worker to
// down, down workers fast-fail without a round trip, and a succeeding
// probe brings the worker back up.
func TestProberLifecycle(t *testing.T) {
	ds := uniformDS(60, 6)
	const (
		shards = 2
		maxR   = 8.0
	)
	w, err := NewWorker(ds, core.Options{}, WorkerConfig{Index: 0, Shards: shards, MaxR: maxR})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	ds1 := &deadSwitch{inner: w.Handler()}
	srv := httptest.NewServer(ds1)
	t.Cleanup(srv.Close)

	gen := Generation(Fingerprint(ds), shards, maxR)
	c := newClient(ClientConfig{
		Addr:    srv.URL,
		Stamp:   Stamp{Generation: gen, Shard: 0, Shards: shards},
		Objects: ds.N(),
	}, 15*time.Millisecond)
	t.Cleanup(c.Close)

	waitFor(t, 2*time.Second, "initial probe to mark worker up", func() bool {
		return c.Info().State == shard.ProbeUp
	})
	if _, err := c.Bound(context.Background(), 3, 2); err != nil {
		t.Fatalf("healthy bound failed: %v", err)
	}

	ds1.set(true)
	waitFor(t, 2*time.Second, "probes to mark worker down", func() bool {
		return c.Info().State == shard.ProbeDown
	})
	if _, err := c.Bound(context.Background(), 3, 2); err == nil {
		t.Fatal("bound against a down worker succeeded")
	} else if got := err.Error(); got == "" {
		t.Fatal("empty error")
	}
	// Fast-fail means no round trip: the request never reaches the
	// (dead) server, so it cannot flip the failure ladder further.
	info := c.Info()
	if info.State != shard.ProbeDown || info.LastProbeErr == "" {
		t.Fatalf("down worker info incomplete: %+v", info)
	}

	ds1.set(false)
	waitFor(t, 2*time.Second, "probe to recover the worker", func() bool {
		return c.Info().State == shard.ProbeUp
	})
	if _, err := c.Bound(context.Background(), 3, 2); err != nil {
		t.Fatalf("bound after recovery failed: %v", err)
	}
}

// TestCloseLeavesNoConnection: a closed client keeps no connection to
// its worker open — neither the prober's nor a query's keep-alive one —
// so a coordinator replaced by a dataset swap or a drain leaks none on
// either side. The worker counts its open connections through
// ConnState.
func TestCloseLeavesNoConnection(t *testing.T) {
	ds := uniformDS(60, 8)
	const (
		shards = 2
		maxR   = 8.0
	)
	w, err := NewWorker(ds, core.Options{}, WorkerConfig{Index: 0, Shards: shards, MaxR: maxR})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	var mu sync.Mutex
	open := 0
	srv := httptest.NewUnstartedServer(w.Handler())
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			open++
		case http.StateClosed, http.StateHijacked:
			open--
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	openConns := func() int {
		mu.Lock()
		defer mu.Unlock()
		return open
	}

	gen := Generation(Fingerprint(ds), shards, maxR)
	for i := 0; i < 3; i++ {
		c := NewClient(ClientConfig{Addr: srv.URL, Stamp: Stamp{Generation: gen, Shard: 0, Shards: shards}, Objects: ds.N()})
		waitFor(t, 2*time.Second, "the first probe", func() bool { return c.Info().State == shard.ProbeUp })
		b, err := c.Bound(context.Background(), 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Complete(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
		if openConns() == 0 {
			t.Fatal("the worker counts no connection from a live client")
		}
		c.Close()
	}
	waitFor(t, 2*time.Second, "every connection to close", func() bool { return openConns() == 0 })
}

// ---------- worker handle lifecycle ----------

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, data.Bytes()
}

func openBound(t *testing.T, raw []byte) BoundResponse {
	t.Helper()
	payload, err := durable.Open(raw)
	if err != nil {
		t.Fatalf("open envelope: %v", err)
	}
	var br BoundResponse
	if err := decodeStrict(payload, &br); err != nil {
		t.Fatalf("decode bound response: %v", err)
	}
	return br
}

// TestWorkerHandleLifecycle: handles are single-use, bound 503s when
// the pool is exhausted (after acquireWait), and the TTL reaper
// reclaims abandoned engines.
func TestWorkerHandleLifecycle(t *testing.T) {
	ds := uniformDS(60, 7)
	w, err := NewWorker(ds, core.Options{}, WorkerConfig{Index: 0, Shards: 2, MaxR: 8, Pool: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.ttl = 40 * time.Millisecond
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(func() { srv.Close(); w.Close() })

	// Take the only engine and pause it behind a handle.
	resp, raw := postJSON(t, srv.URL+PathBound, BoundRequest{R: 3, K: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first bound: %d %s", resp.StatusCode, raw)
	}
	h1 := openBound(t, raw).Handle

	// Pool exhausted: the next bound must answer 503, not hang.
	resp, _ = postJSON(t, srv.URL+PathBound, BoundRequest{R: 3, K: 2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("bound with exhausted pool: %d, want 503", resp.StatusCode)
	}

	// Past the TTL the reaper reclaims the engine...
	time.Sleep(60 * time.Millisecond)
	resp, raw = postJSON(t, srv.URL+PathBound, BoundRequest{R: 3, K: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bound after reap: %d %s", resp.StatusCode, raw)
	}
	h2 := openBound(t, raw).Handle

	// ...which also voided the old handle.
	resp, _ = postJSON(t, srv.URL+PathComplete, CompleteRequest{Handle: h1, Floor: 0})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("complete on reaped handle: %d, want 404", resp.StatusCode)
	}

	// The live handle completes exactly once.
	resp, raw = postJSON(t, srv.URL+PathComplete, CompleteRequest{Handle: h2, Floor: 0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete: %d %s", resp.StatusCode, raw)
	}
	resp, _ = postJSON(t, srv.URL+PathComplete, CompleteRequest{Handle: h2, Floor: 0})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second complete on same handle: %d, want 404", resp.StatusCode)
	}

	// Release is idempotent best-effort: unknown handles are fine.
	resp, _ = postJSON(t, srv.URL+PathRelease, ReleaseRequest{Handle: 999})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("release unknown handle: %d, want 200", resp.StatusCode)
	}

	// Hostile requests: wrong method, malformed parameters.
	get, err := http.Get(srv.URL + PathBound)
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET bound: %d, want 405", get.StatusCode)
	}
	for _, bad := range []BoundRequest{{R: -1, K: 2}, {R: 3, K: 0}, {R: 100, K: 2}} {
		resp, _ = postJSON(t, srv.URL+PathBound, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bound %+v: %d, want 400", bad, resp.StatusCode)
		}
	}
}
