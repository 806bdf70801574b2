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
// paths (complete, release, /shardz) pass through untouched.
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
// transport's identity — address, expected generation — and the
// breaker's state. The shard's counts are the worker's own, on its
// /shardz, which the coordinator does not poll: a remote row leaves
// them out.
func TestRemoteHealth(t *testing.T) {
	ds := uniformDS(80, 2)
	const maxR = 8.0
	co := remoteCluster(t, ds, 2, maxR, shard.Config{}, nil, nil)
	gen := Generation(Fingerprint(ds), 2, maxR)
	for _, h := range co.Health() {
		if h.Addr == "" {
			t.Errorf("shard %d: no addr in health row", h.ID)
		}
		if h.Generation != gen {
			t.Errorf("shard %d: health generation %d, want %d", h.ID, h.Generation, gen)
		}
		if h.State != shard.ProbeUp || h.Breaker != "closed" {
			t.Errorf("shard %d at rest: state %q, breaker %q", h.ID, h.State, h.Breaker)
		}
		if row, _ := json.Marshal(h); h.Counts != nil || bytes.Contains(row, []byte(`"objects"`)) {
			t.Errorf("shard %d: a remote health row carries counts: %s", h.ID, row)
		}
		resp, err := http.Get(h.Addr + PathShardz)
		if err != nil {
			t.Fatal(err)
		}
		raw := new(bytes.Buffer)
		_, err = raw.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		payload, err := durable.Open(raw.Bytes())
		if err != nil {
			t.Fatalf("shard %d: /shardz envelope: %v", h.ID, err)
		}
		var sz ShardzResponse
		if err := decodeStrict(payload, &sz); err != nil {
			t.Fatalf("shard %d: /shardz body: %v", h.ID, err)
		}
		if want := (Stamp{Generation: gen, Shard: h.ID, Shards: 2}); sz.Stamp != want {
			t.Errorf("shard %d: /shardz stamp %+v, want %+v", h.ID, sz.Stamp, want)
		}
		if sz.Objects <= 0 || sz.Primaries+sz.Replicas != sz.Objects {
			t.Errorf("shard %d: /shardz counts %+v", h.ID, sz)
		}
	}
}

// TestRemoteInvalidQuery: a worker answers 400 to an r its engines
// refuse, and the coordinator hands that back as the caller's error —
// the worker stays up, no breaker opens, and the next valid query is
// exact. The bad r is asked back to back as many times as it takes to
// open a breaker (shard.DefaultBreakThreshold) that counted it.
func TestRemoteInvalidQuery(t *testing.T) {
	ds := uniformDS(80, 2)
	co := remoteCluster(t, ds, 2, 8, shard.Config{}, nil, nil)
	for i := 0; i < shard.DefaultBreakThreshold; i++ {
		if _, _, err := co.Query(context.Background(), 1e-12, 1); !errors.Is(err, core.ErrInvalidQuery) {
			t.Fatalf("r=1e-12: err = %v, want core.ErrInvalidQuery", err)
		}
	}
	for _, h := range co.Health() {
		if h.State != shard.ProbeUp || h.Breaker != "closed" || h.LastError != "" {
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
		// The query's own bound attempts see the stale stamp: each is
		// counted as stale and charged to the shard's breaker, which is
		// then no longer up (TestRemoteLivenessOnBreaker walks it on to
		// down).
		check(t, co, reg, fault.PointStaleGen, func(m *shard.Metrics) uint64 { return m.Stale.Value() })
		if st := co.Health()[1].State; st == shard.ProbeUp {
			t.Errorf("stale worker state %q after a stale attempt", st)
		}
	})
}

// ---------- liveness ----------

// deadSwitch wraps a handler with a kill switch: while dead, every
// request answers 502. It counts the bound requests that reach it,
// dead or alive.
type deadSwitch struct {
	mu     sync.Mutex
	dead   bool
	bounds int
	inner  http.Handler
}

func (d *deadSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	dead := d.dead
	if r.URL.Path == PathBound {
		d.bounds++
	}
	d.mu.Unlock()
	if dead {
		http.Error(w, "gone", http.StatusBadGateway)
		return
	}
	d.inner.ServeHTTP(w, r)
}

func (d *deadSwitch) wrap(inner http.Handler) http.Handler {
	d.inner = inner
	return d
}

func (d *deadSwitch) set(dead bool) {
	d.mu.Lock()
	d.dead = dead
	d.mu.Unlock()
}

func (d *deadSwitch) reached() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bounds
}

// TestRemoteLivenessOnBreaker: the coordinator's breaker is a remote
// worker's one liveness signal. A failing worker reads suspect after
// its first failed attempt and down once DefaultBreakThreshold attempts
// failed; while the breaker is open no query reaches it, and each
// answer is degraded with an interval holding the oracle's score. A
// dead worker that comes back rejoins through the breaker's half-open
// attempt after the cooldown; a stale one is counted as stale on every
// attempt, never merged, and stays down.
func TestRemoteLivenessOnBreaker(t *testing.T) {
	ds := uniformDS(90, 6)
	const (
		shards   = 3
		maxR     = 8.0
		r        = 3.0
		k        = 2
		cooldown = time.Second
	)
	want := oracleRun(t, ds, r, k)
	// No retry and no hedge: each query makes one attempt per shard, so
	// it charges shard 1's breaker at most once.
	cfg := shard.Config{Retries: -1, HedgeAfter: -1, BreakCooldown: cooldown}
	state := func(co *shard.Coordinator) string { return co.Health()[1].State }

	// degraded runs one query shard 1 cannot answer: shard 1 is down in
	// its report, so nothing it sent was merged, and the answer's
	// interval holds the oracle's score.
	degraded := func(t *testing.T, co *shard.Coordinator) {
		t.Helper()
		res, rep, err := co.Query(context.Background(), r, k)
		if err != nil {
			t.Fatalf("query must degrade, not fail: %v", err)
		}
		if !res.Degraded || res.Interval == nil || rep.PerShard[1].State != shard.StateDown {
			t.Fatalf("shard 1 failing: degraded %v, shard 1 %q (%s)", res.Degraded, rep.PerShard[1].State, rep.PerShard[1].Err)
		}
		if iv := res.Interval; iv.LB > want.Best.Score || want.Best.Score > iv.UB {
			t.Fatalf("certified interval [%d,%d] does not contain oracle score %d", iv.LB, iv.UB, want.Best.Score)
		}
	}
	exact := func(t *testing.T, co *shard.Coordinator) {
		t.Helper()
		res, rep, err := co.Query(context.Background(), r, k)
		if err != nil || res.Degraded || !sameScored(res.TopK, want.TopK) {
			t.Fatalf("healthy cluster: res=%+v rep=%+v err=%v, oracle %v", res, rep, err, want.TopK)
		}
	}
	// breakOpen walks shard 1 from up to down and returns when its
	// breaker opened.
	breakOpen := func(t *testing.T, co *shard.Coordinator) time.Time {
		t.Helper()
		if st := state(co); st != shard.ProbeUp {
			t.Fatalf("before any failure: state %q, want %q", st, shard.ProbeUp)
		}
		for i := 1; i <= shard.DefaultBreakThreshold; i++ {
			degraded(t, co)
			want := shard.ProbeSuspect
			if i == shard.DefaultBreakThreshold {
				want = shard.ProbeDown
			}
			if st := state(co); st != want {
				t.Fatalf("after %d failed attempts: state %q, want %q", i, st, want)
			}
		}
		return time.Now()
	}
	// refused runs queries while the breaker is open: none reaches the
	// worker.
	refused := func(t *testing.T, co *shard.Coordinator, sw *deadSwitch, opened time.Time) {
		t.Helper()
		before := sw.reached()
		for i := 0; i < 3; i++ {
			degraded(t, co)
		}
		if time.Since(opened) >= cooldown {
			t.Fatalf("the queries outlasted the %s cooldown", cooldown)
		}
		if got := sw.reached() - before; got != 0 {
			t.Fatalf("%d bound requests reached the worker while its breaker was open", got)
		}
		if st := state(co); st != shard.ProbeDown {
			t.Fatalf("open breaker: state %q, want %q", st, shard.ProbeDown)
		}
	}
	halfOpen := func(t *testing.T, co *shard.Coordinator) {
		t.Helper()
		waitFor(t, 2*cooldown, "the breaker's cooldown", func() bool { return co.Health()[1].Breaker == "half-open" })
	}

	t.Run("dead worker", func(t *testing.T) {
		sw := new(deadSwitch)
		co := remoteCluster(t, ds, shards, maxR, cfg, map[int]func(http.Handler) http.Handler{1: sw.wrap}, nil)
		exact(t, co)
		sw.set(true)
		refused(t, co, sw, breakOpen(t, co))
		sw.set(false)
		halfOpen(t, co)
		exact(t, co)
		if st := state(co); st != shard.ProbeUp {
			t.Fatalf("recovered worker: state %q, want %q", st, shard.ProbeUp)
		}
	})

	t.Run("stale worker", func(t *testing.T) {
		sw := new(deadSwitch) // never dead: it only counts
		co := remoteCluster(t, ds, shards, maxR, cfg, map[int]func(http.Handler) http.Handler{1: sw.wrap},
			func(i int, cc *ClientConfig) {
				if i == 1 {
					cc.Stamp.Generation++ // the worker serves another generation
				}
			})
		stale := func() int { return int(co.Metrics().Stale.Value()) }
		refused(t, co, sw, breakOpen(t, co))
		if got := stale(); got != shard.DefaultBreakThreshold {
			t.Fatalf("Metrics.Stale = %d after %d stale attempts", got, shard.DefaultBreakThreshold)
		}
		// The half-open attempt reaches the worker, is stale again, and
		// re-opens the breaker.
		halfOpen(t, co)
		before := sw.reached()
		degraded(t, co)
		if got := sw.reached() - before; got != 1 {
			t.Fatalf("half-open: %d bound requests reached the worker, want 1", got)
		}
		if got, st := stale(), state(co); got != shard.DefaultBreakThreshold+1 || st != shard.ProbeDown {
			t.Fatalf("after the half-open attempt: Metrics.Stale = %d, state %q", got, st)
		}
	})
}

// TestCloseLeavesNoConnection: a closed client keeps no connection to
// its worker open — not even a query's keep-alive one — so a
// coordinator replaced by a dataset swap or a drain leaks none on
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
