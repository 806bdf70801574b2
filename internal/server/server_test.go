package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/data"
)

func testDataset(n int, seed int64) *data.Dataset {
	return data.GenUniform(data.UniformConfig{N: n, M: 6, FieldSize: 30, Spread: 5, Seed: seed})
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(testDataset(80, 7), core.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get performs one request against the handler and decodes the JSON
// body into out (which may be nil).
func get(t *testing.T, h http.Handler, url string, out any) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s: %v (body %q)", url, err, rec.Body.String())
		}
	}
	return rec
}

func TestBadParams(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := []string{
		"/v1/query",                  // missing r
		"/v1/query?r=0",              // non-positive r
		"/v1/query?r=-3",             //
		"/v1/query?r=abc",            // unparsable r
		"/v1/query?r=4&k=0",          // bad k
		"/v1/query?r=4&k=x",          //
		"/v1/interacting?r=4",        // missing obj
		"/v1/interacting?r=4&obj=-1", // negative obj
		"/v1/interacting?r=4&obj=99999",
		"/v1/scores?r=4&buckets=0",
		"/v1/sweep?k=1",                                   // missing rs
		"/v1/sweep?rs=2,zap&k=1",                          // unparsable rs entry
		"/v1/sweep?rs=2,-1&k=1",                           // non-positive rs entry
		"/v1/sweep?rs=" + strings.Repeat("2,", 100) + "2", // over MaxSweep
	}
	for _, url := range cases {
		if rec := get(t, h, url, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %q)", url, rec.Code, rec.Body.String())
		}
	}
	var snap MetricsSnapshot
	get(t, h, "/metrics", &snap)
	if snap.BadRequests != uint64(len(cases)) {
		t.Errorf("bad_request_total = %d, want %d", snap.BadRequests, len(cases))
	}
	if snap.EngineRuns != 0 {
		t.Errorf("engine_runs_total = %d after only bad requests, want 0", snap.EngineRuns)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query?r=4", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/query: status %d, want 405", rec.Code)
	}
}

func TestQueryAndCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	var first queryResponse
	if rec := get(t, h, "/v1/query?r=6&k=3", &first); rec.Code != http.StatusOK {
		t.Fatalf("query: status %d (body %q)", rec.Code, rec.Body.String())
	}
	if first.Cached || first.Coalesced {
		t.Errorf("first query reported cached=%v coalesced=%v, want false/false", first.Cached, first.Coalesced)
	}
	if len(first.Result.TopK) != 3 {
		t.Errorf("top_k has %d entries, want 3", len(first.Result.TopK))
	}

	var second queryResponse
	get(t, h, "/v1/query?r=6&k=3", &second)
	if !second.Cached {
		t.Error("identical second query was not served from cache")
	}
	if second.Result.Best != first.Result.Best {
		t.Errorf("cached result diverged: %+v vs %+v", second.Result.Best, first.Result.Best)
	}

	// A different k is a different key.
	var third queryResponse
	get(t, h, "/v1/query?r=6&k=1", &third)
	if third.Cached {
		t.Error("query with different k hit the cache")
	}

	var snap MetricsSnapshot
	get(t, h, "/metrics", &snap)
	if snap.Cache.Hits != 1 || snap.EngineRuns != 2 {
		t.Errorf("metrics: hits=%d runs=%d, want 1 and 2", snap.Cache.Hits, snap.EngineRuns)
	}
	if snap.Requests["query"] != 3 {
		t.Errorf("requests_total[query] = %d, want 3", snap.Requests["query"])
	}
	if snap.PhaseLatency["total"].Count != 2 {
		t.Errorf("phase_latency[total].count = %d, want 2", snap.PhaseLatency["total"].Count)
	}
}

func TestDisableCache(t *testing.T) {
	s := newTestServer(t, Config{DisableCache: true})
	h := s.Handler()
	var resp queryResponse
	get(t, h, "/v1/query?r=6", &resp)
	get(t, h, "/v1/query?r=6", &resp)
	if resp.Cached {
		t.Error("cache disabled but response reported cached")
	}
	var snap MetricsSnapshot
	get(t, h, "/metrics", &snap)
	if snap.EngineRuns != 2 {
		t.Errorf("engine_runs_total = %d with cache disabled, want 2", snap.EngineRuns)
	}
	if snap.Cache.Enabled {
		t.Error("metrics report cache enabled")
	}
}

// TestCoalescing holds the leader in flight with the test barrier
// until all followers are attached, then checks one engine run served
// everyone.
func TestCoalescing(t *testing.T) {
	const followers = 6
	s := newTestServer(t, Config{DisableCache: true})
	release := make(chan struct{})
	s.testRunBarrier = func() { <-release }
	h := s.Handler()

	key := fmt.Sprintf("0|query|%s|1|dfalse", rKey(6))
	var wg sync.WaitGroup
	codes := make(chan int, followers+1)
	coalesced := atomic.Int64{}
	for i := 0; i < followers+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query?r=6", nil))
			codes <- rec.Code
			var qr queryResponse
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &qr); err == nil && qr.Coalesced {
					coalesced.Add(1)
				}
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.flight.Pending(key) < followers+1 {
		if time.Now().After(deadline) {
			t.Fatalf("flight.Pending = %d, want %d; followers never attached", s.flight.Pending(key), followers+1)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("coalesced request returned %d", code)
		}
	}
	var snap MetricsSnapshot
	get(t, h, "/metrics", &snap)
	if snap.EngineRuns != 1 {
		t.Errorf("engine_runs_total = %d, want 1 (coalescing failed)", snap.EngineRuns)
	}
	if snap.Coalesced != followers {
		t.Errorf("coalesced_total = %d, want %d", snap.Coalesced, followers)
	}
	if got := coalesced.Load(); got != followers {
		t.Errorf("%d responses flagged coalesced, want %d", got, followers)
	}
}

// TestOverload429 fills the single engine slot and checks that a
// *distinct* query (no coalescing possible) is rejected with 429.
func TestOverload429(t *testing.T) {
	s := newTestServer(t, Config{AdmissionWait: -1, DisableCache: true})
	release := make(chan struct{})
	s.testRunBarrier = func() { <-release }
	h := s.Handler()

	done := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query?r=6", nil))
		done <- rec.Code
	}()
	// Wait for the leader to hold the slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.m.inFlight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never acquired the engine slot")
		}
		time.Sleep(100 * time.Microsecond)
	}

	rec := get(t, h, "/v1/query?r=7", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("distinct query under load: status %d, want 429 (body %q)", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 response lacks Retry-After")
	}
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("blocked leader finished with %d, want 200", code)
	}
	var snap MetricsSnapshot
	get(t, h, "/metrics", &snap)
	if snap.AdmissionRejected != 1 {
		t.Errorf("admission_rejected_total = %d, want 1", snap.AdmissionRejected)
	}
}

func TestQueryTimeout504(t *testing.T) {
	s := newTestServer(t, Config{QueryTimeout: time.Nanosecond})
	rec := get(t, s.Handler(), "/v1/query?r=6", nil)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %q)", rec.Code, rec.Body.String())
	}
}

func TestDrain503(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	get(t, h, "/v1/query?r=6", nil)
	s.Drain()
	if rec := get(t, h, "/v1/query?r=6", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query while draining: status %d, want 503", rec.Code)
	}
	// healthz and metrics keep responding and report the drain.
	var hr healthResponse
	if rec := get(t, h, "/healthz", &hr); rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining: status %d, want 200", rec.Code)
	}
	if !hr.Draining || hr.Status != "draining" {
		t.Errorf("healthz = %+v, want draining", hr)
	}
	var snap MetricsSnapshot
	get(t, h, "/metrics", &snap)
	if snap.DrainRejected != 1 {
		t.Errorf("drain_rejected_total = %d, want 1", snap.DrainRejected)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	var hr healthResponse
	get(t, s.Handler(), "/healthz", &hr)
	if hr.Status != "ok" || hr.Objects != 80 || hr.Dataset != "uniform" {
		t.Errorf("healthz = %+v", hr)
	}
}

// TestSwapInvalidates swaps the dataset mid-session and checks the
// epoch bump, cache invalidation and fresh label store.
func TestSwapInvalidates(t *testing.T) {
	store := labelstore.NewStore()
	s, err := New(testDataset(80, 7), core.Options{Labels: store}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	var warm queryResponse
	get(t, h, "/v1/query?r=6", &warm)
	if warm.Result.Stats.UsedLabels {
		t.Error("first query claims to have reused labels")
	}
	// Same ⌈r⌉, different r: must reuse the labels just collected.
	var labelled queryResponse
	get(t, h, "/v1/query?r=5.5", &labelled)
	if !labelled.Result.Stats.UsedLabels {
		t.Error("second query sharing ⌈r⌉ did not reuse labels")
	}

	if err := s.SwapDataset(testDataset(120, 11)); err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	get(t, h, "/healthz", &hr)
	if hr.Objects != 120 || hr.Epoch != 1 {
		t.Errorf("post-swap healthz = %+v, want 120 objects at epoch 1", hr)
	}
	var fresh queryResponse
	get(t, h, "/v1/query?r=6", &fresh)
	if fresh.Cached {
		t.Error("post-swap query was served from the stale cache")
	}
	if fresh.Epoch != 1 {
		t.Errorf("post-swap query epoch = %d, want 1", fresh.Epoch)
	}
	if fresh.Result.Stats.UsedLabels {
		t.Error("post-swap query reused labels from the previous dataset")
	}
	if s.cache.Len() != 1 {
		t.Errorf("cache holds %d entries after swap+1 query, want 1", s.cache.Len())
	}
}

func TestSwapEndpointForbiddenByDefault(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/dataset", strings.NewReader(`{"path":"/tmp/x.bin"}`)))
	if rec.Code != http.StatusForbidden {
		t.Fatalf("swap without AllowSwap: status %d, want 403", rec.Code)
	}
}

func TestSwapEndpoint(t *testing.T) {
	path := t.TempDir() + "/swap.bin"
	if err := data.SaveFile(path, testDataset(50, 3)); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{AllowSwap: true})
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/dataset", strings.NewReader(`{"path":"`+path+`"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("swap: status %d (body %q)", rec.Code, rec.Body.String())
	}
	var hr healthResponse
	get(t, h, "/healthz", &hr)
	if hr.Objects != 50 || hr.Epoch != 1 {
		t.Errorf("post-swap healthz = %+v", hr)
	}
	// Bad path → 400, epoch unchanged.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/dataset", strings.NewReader(`{"path":"/nonexistent.bin"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("swap with bad path: status %d, want 400", rec.Code)
	}
}

func TestInteractingScoresSweep(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	var ir interactingResponse
	if rec := get(t, h, "/v1/interacting?r=6&obj=0", &ir); rec.Code != http.StatusOK {
		t.Fatalf("interacting: status %d", rec.Code)
	}
	if ir.Count != len(ir.IDs) {
		t.Errorf("interacting count %d != len(ids) %d", ir.Count, len(ir.IDs))
	}

	var sr scoresResponse
	if rec := get(t, h, "/v1/scores?r=6", &sr); rec.Code != http.StatusOK {
		t.Fatalf("scores: status %d", rec.Code)
	}
	if sr.Result.N != 80 || sr.Result.Scores != nil {
		t.Errorf("scores payload = %+v, want n=80 without raw scores", sr.Result)
	}
	var srFull scoresResponse
	get(t, h, "/v1/scores?r=6&full=1", &srFull)
	if len(srFull.Result.Scores) != 80 {
		t.Errorf("full scores returned %d entries, want 80", len(srFull.Result.Scores))
	}

	var sw sweepResponse
	if rec := get(t, h, "/v1/sweep?rs=4,5,6&k=2", &sw); rec.Code != http.StatusOK {
		t.Fatalf("sweep: status %d", rec.Code)
	}
	if len(sw.Results) != 3 {
		t.Errorf("sweep returned %d results, want 3", len(sw.Results))
	}
	// Sweep is cached as one unit.
	get(t, h, "/v1/sweep?rs=4,5,6&k=2", &sw)
	if !sw.Cached {
		t.Error("identical sweep was not served from cache")
	}
}

// TestConcurrentStress hammers a real HTTP server with a mixture of
// identical and distinct queries across endpoints; run under -race in
// CI. Every response must be 200 or 429.
func TestConcurrentStress(t *testing.T) {
	s, err := New(testDataset(120, 5), core.Options{Labels: labelstore.NewStore()},
		Config{MaxInFlight: 2, AdmissionWait: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	urls := []string{
		"/v1/query?r=5", "/v1/query?r=5", "/v1/query?r=5", // identical: coalesce/cache
		"/v1/query?r=6&k=4", "/v1/query?r=7",
		"/v1/interacting?r=5&obj=3",
		"/v1/scores?r=5",
		"/v1/sweep?rs=4,5&k=2",
		"/metrics", "/healthz",
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				url := urls[(w+i)%len(urls)]
				resp, err := http.Get(ts.URL + url)
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					errs <- fmt.Errorf("%s: status %d", url, resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var snap MetricsSnapshot
	get(t, s.Handler(), "/metrics", &snap)
	if snap.EngineRuns == 0 {
		t.Error("stress run recorded no engine runs")
	}
	if snap.InFlight != 0 {
		t.Errorf("in_flight = %d after the stress run, want 0", snap.InFlight)
	}
}

// TestMetricsShape decodes /metrics and sanity-checks the documented
// fields exist with coherent values.
func TestMetricsShape(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	get(t, h, "/v1/query?r=6", nil)
	get(t, h, "/v1/query?r=6", nil)

	var m map[string]any
	get(t, h, "/metrics", &m)
	for _, k := range []string{
		"uptime_s", "dataset", "objects", "dataset_epoch", "in_flight", "max_in_flight",
		"coalesce_enabled", "requests_total", "engine_runs_total", "coalesced_total",
		"admission_rejected_total", "bad_request_total", "timeout_total",
		"drain_rejected_total", "cache", "http_latency", "phase_latency",
	} {
		if _, ok := m[k]; !ok {
			t.Errorf("/metrics lacks key %q", k)
		}
	}
	var snap MetricsSnapshot
	get(t, h, "/metrics?buckets=1", &snap)
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", snap.Cache)
	}
	if hist := snap.PhaseLatency["total"]; hist.Count != 1 || len(hist.Buckets) == 0 {
		t.Errorf("phase_latency[total] = %+v, want count 1 with buckets", hist)
	}
}

// TestMetricsIndexCache checks the index_cache section of /metrics: two
// queries with one ⌈r⌉ miss the result cache, and the second takes
// τ^upp and the warm large grid from the engines' cache — in every
// shard pool on the sharded strategy, summed — and builds no large
// grid (large_builds counts the misses'). The τ^upp values the entries
// hold grow from none with the queries and never pass one per object
// per entry; the grids' bytes stay within the budget, 40 bytes per
// point of each pool's dataset. Label queries bypass the cache; the
// score memo's counts (memo) grow on every strategy. The solo and
// sharded queries take ⌈r⌉ = 6. At ⌈r⌉ = 5 this dataset's grid, 178
// cells for 480 points, takes 30 bytes a point lean and over 40 with
// its b^adj memo, and is not kept: the "lazy" row's second query finds
// its entry without a grid, and it needs neither Lemma 2 nor a walk (k
// = 1 at the r whose top 2 the first query walked, the memo holding
// their scores), so it builds no large grid either.
func TestMetricsIndexCache(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts core.Options
		cfg  Config
		q    [2]string
		want core.IndexCacheStats
	}{
		{"solo", core.Options{}, Config{}, [2]string{"r=5.5", "r=5.2&k=2"}, core.IndexCacheStats{Hits: 1, Misses: 1, Entries: 1, GridHits: 1, LargeBuilds: 1, Grids: 1}},
		{"sharded", core.Options{}, Config{Shards: 2, ShardMaxR: 6}, [2]string{"r=5.5", "r=5.2&k=2"}, core.IndexCacheStats{Hits: 2, Misses: 2, Entries: 2, GridHits: 2, LargeBuilds: 2, Grids: 2}},
		{"lazy", core.Options{}, Config{}, [2]string{"r=4.5&k=2", "r=4.5"}, core.IndexCacheStats{Hits: 1, Misses: 1, Entries: 1, LargeBuilds: 1}},
		{"labels", core.Options{Labels: labelstore.NewStore()}, Config{}, [2]string{"r=4.5", "r=4.2&k=2"}, core.IndexCacheStats{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := testDataset(80, 7)
			s, err := New(ds, tc.opts, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Drain()
			h := s.Handler()
			var snap MetricsSnapshot
			filled := 0
			for _, url := range []string{"/v1/query?" + tc.q[0], "/v1/query?" + tc.q[1]} {
				if rec := get(t, h, url, nil); rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body)
				}
				get(t, h, "/metrics", &snap)
				st := snap.IndexCache
				if st.Filled < filled || st.Filled > st.Entries*ds.N() || (st.Entries > 0) != (st.Filled > 0) {
					t.Errorf("after %s: index_cache %+v, want filled in [%d, %d × %d], 0 only without entries", url, st, filled, st.Entries, ds.N())
				}
				filled = st.Filled
			}
			st := snap.IndexCache
			if got := (core.IndexCacheStats{Hits: st.Hits, Misses: st.Misses, Entries: st.Entries, GridHits: st.GridHits, LargeBuilds: st.LargeBuilds, Grids: st.Grids}); got != tc.want {
				t.Errorf("index_cache = %+v, want %+v", st, tc.want)
			}
			// Every strategy records the scores its walks found, label
			// queries included.
			if m := st.Memo; m.Objects == 0 || m.Steps < m.Objects || m.Bytes == 0 {
				t.Errorf("index_cache.memo = %+v, want the recorded scores", m)
			}
			// Each shard pool has a budget of its own, over a dataset no
			// larger than the whole.
			if limit := 40 * ds.TotalPoints() * max(1, tc.cfg.Shards); st.GridBytes > limit || (st.Grids > 0) != (st.GridBytes > 0) {
				t.Errorf("index_cache = %+v, want grid bytes within %d, 0 only without grids", st, limit)
			}
		})
	}
}
