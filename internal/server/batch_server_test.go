package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/fault"
)

// TestBatchedQueryParity floods a batch-execution server with a
// concurrent burst of shared-⌈r⌉ queries and checks every answer
// against a clean solo engine: batching must be invisible in the
// results, visible only in the Batched flag and the /metrics batch
// section.
func TestBatchedQueryParity(t *testing.T) {
	ds := testDataset(200, 7)
	s, err := New(ds, core.Options{}, Config{
		MaxInFlight:    2,
		DisableCache:   true, // every request must reach the batch engine
		BatchExecution: true,
		BatchWindow:    50 * time.Millisecond,
		BatchMaxSize:   64,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	clean, err := core.NewEngine(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	type rk struct {
		r float64
		k int
	}
	// Two ceilings, several exact thresholds each, two k values.
	var specs []rk
	for _, r := range []float64{5.1, 5.5, 5.9, 6.0, 6.3, 6.8} {
		for k := 1; k <= 2; k++ {
			specs = append(specs, rk{r, k})
		}
	}
	oracle := map[rk]*core.Result{}
	for _, sp := range specs {
		res, err := clean.RunTopK(sp.r, sp.k)
		if err != nil {
			t.Fatal(err)
		}
		oracle[sp] = res
	}

	var wg sync.WaitGroup
	errs := make(chan string, 2*len(specs))
	for round := 0; round < 2; round++ {
		for _, sp := range specs {
			wg.Add(1)
			go func(sp rk) {
				defer wg.Done()
				var qr queryResponse
				url := fmt.Sprintf("/v1/query?r=%s&k=%d", rKey(sp.r), sp.k)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
				if rec.Code != http.StatusOK {
					errs <- fmt.Sprintf("(%g,%d): status %d: %s", sp.r, sp.k, rec.Code, rec.Body.String())
					return
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
					errs <- fmt.Sprintf("(%g,%d): %v", sp.r, sp.k, err)
					return
				}
				if !qr.Batched {
					errs <- fmt.Sprintf("(%g,%d): response not marked batched", sp.r, sp.k)
				}
				want := oracle[sp]
				got := qr.Result
				if got.Best != want.Best || len(got.TopK) != len(want.TopK) {
					errs <- fmt.Sprintf("(%g,%d): best %+v != solo %+v", sp.r, sp.k, got.Best, want.Best)
					return
				}
				for i := range want.TopK {
					if got.TopK[i] != want.TopK[i] {
						errs <- fmt.Sprintf("(%g,%d): top_k[%d] %+v != %+v", sp.r, sp.k, i, got.TopK[i], want.TopK[i])
					}
				}
				// Work counters are part of the parity contract too.
				if got.Stats.Candidates != want.Stats.Candidates ||
					got.Stats.Verified != want.Stats.Verified ||
					got.Stats.DistanceComps != want.Stats.DistanceComps ||
					got.Stats.AdjComputed != want.Stats.AdjComputed {
					errs <- fmt.Sprintf("(%g,%d): counters diverged: got cand=%d ver=%d dist=%d adj=%d, want %d/%d/%d/%d",
						sp.r, sp.k,
						got.Stats.Candidates, got.Stats.Verified, got.Stats.DistanceComps, got.Stats.AdjComputed,
						want.Stats.Candidates, want.Stats.Verified, want.Stats.DistanceComps, want.Stats.AdjComputed)
				}
			}(sp)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	var snap MetricsSnapshot
	get(t, h, "/metrics", &snap)
	if snap.Batch == nil {
		t.Fatal("/metrics has no batch section on a batch-execution server")
	}
	if want := uint64(2 * len(specs)); snap.Batch.Queries != want {
		t.Errorf("batch queries = %d, want %d", snap.Batch.Queries, want)
	}
	if snap.Batch.Epochs == 0 || snap.Batch.Groups == 0 {
		t.Errorf("batch stats show no batching: %+v", snap.Batch)
	}
	if s.pool.Idle() != s.pool.Cap() {
		t.Errorf("engine pool leaked: %d of %d slots present", s.pool.Idle(), s.pool.Cap())
	}
}

// TestBatchedCacheHit: the result cache sits in front of the batch
// engine; an identical repeat is served without touching an epoch.
func TestBatchedCacheHit(t *testing.T) {
	s := newTestServer(t, Config{BatchExecution: true, BatchWindow: time.Millisecond})
	h := s.Handler()

	var first, second queryResponse
	if rec := get(t, h, "/v1/query?r=6&k=2", &first); rec.Code != http.StatusOK {
		t.Fatalf("query: status %d (body %q)", rec.Code, rec.Body.String())
	}
	if !first.Batched || first.Cached {
		t.Errorf("first query: batched=%v cached=%v, want true/false", first.Batched, first.Cached)
	}
	get(t, h, "/v1/query?r=6&k=2", &second)
	if !second.Cached || !second.Batched {
		t.Errorf("second query: batched=%v cached=%v, want true/true", second.Batched, second.Cached)
	}
	if second.Result.Best != first.Result.Best {
		t.Errorf("cached result diverged: %+v vs %+v", second.Result.Best, first.Result.Best)
	}

	var snap MetricsSnapshot
	get(t, h, "/metrics", &snap)
	if snap.Batch.Queries != 1 {
		t.Errorf("batch engine saw %d queries, want 1 (second was a cache hit)", snap.Batch.Queries)
	}
}

// TestBatchedChaosSurvival is the batch-mode storm: concurrent mixed
// traffic while verification panics, latency spikes and epoch-close
// faults misbehave underneath. A panicking group must fail only its
// epoch's members — the engine quarantines, the pool refills, and the
// batch engine keeps serving subsequent epochs exactly.
func TestBatchedChaosSurvival(t *testing.T) {
	reg := fault.New(17)
	reg.Arm(fault.Rule{Point: fault.PointVerification, Kind: fault.KindPanic, P: 0.05})
	reg.Arm(fault.Rule{Point: fault.PointVerification, Kind: fault.KindLatency, P: 0.2, Delay: 40 * time.Millisecond})
	reg.Arm(fault.Rule{Point: fault.PointEpochClose, Kind: fault.KindError, P: 0.05})

	ds := testDataset(200, 3)
	s, err := New(ds, core.Options{Labels: labelstore.NewStore()}, Config{
		MaxInFlight:    2,
		QueryTimeout:   30 * time.Millisecond,
		DisableCache:   true,
		BatchExecution: true,
		BatchWindow:    2 * time.Millisecond,
		BatchMaxSize:   16,
		Faults:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	var (
		mu       sync.Mutex
		statuses = map[int]int{}
	)
	const workers, perWorker = 8, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Cluster thresholds on few ceilings so epochs really
				// form multi-member groups under fire.
				r := 4 + float64(i%3) + float64(w)*1e-4
				url := fmt.Sprintf("/v1/query?r=%s&k=%d", rKey(r), 1+i%2)
				if i%2 == 0 {
					url += "&degraded=1"
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
				mu.Lock()
				statuses[rec.Code]++
				mu.Unlock()
				switch rec.Code {
				case http.StatusOK:
					var qr queryResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
						t.Errorf("undecodable 200 body: %v", err)
					} else if qr.Result.Degraded {
						if iv := qr.Result.Interval; iv == nil || iv.LB > iv.UB {
							t.Errorf("malformed degraded result: %+v", qr.Result)
						}
					}
				case http.StatusTooManyRequests, http.StatusInternalServerError,
					http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					// Expected chaos outcomes.
				default:
					t.Errorf("unexpected status %d: %s", rec.Code, rec.Body.String())
				}
			}
		}(w)
	}
	wg.Wait()

	// Detached members answer their clients while their group is still
	// running on a pool engine; give in-flight groups a moment to
	// return their slots before asserting the pool is whole.
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.Idle() != s.pool.Cap() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if s.pool.Idle() != s.pool.Cap() {
		t.Errorf("engine pool leaked: %d of %d slots present", s.pool.Idle(), s.pool.Cap())
	}
	if statuses[http.StatusOK] == 0 {
		t.Errorf("no request succeeded under chaos: %v", statuses)
	}

	// The storm is probabilistic (scheduling decides how many requests
	// reach verification before their deadline); force one certain
	// group panic so the quarantine-layering assertions always have a
	// subject.
	reg.Clear(fault.PointVerification)
	reg.Clear(fault.PointEpochClose)
	s.cfg.QueryTimeout = 30 * time.Second
	reg.Arm(fault.Rule{Point: fault.PointVerification, Kind: fault.KindPanic, P: 1})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/query?r=9&k=1", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("forced verification panic: status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	reg.Clear(fault.PointVerification)

	var snap MetricsSnapshot
	get(t, h, "/metrics", &snap)
	// Engine panics surface through withEngine (quarantine) and are
	// absorbed by the batch engine's group recovery — they never reach
	// the HTTP panic middleware.
	if snap.Quarantined == 0 {
		t.Error("verification panic never quarantined: quarantined_total = 0")
	}
	if snap.Panics != 0 {
		t.Errorf("handler panic_total = %d: batch group panics must not escape to the HTTP layer", snap.Panics)
	}
	if snap.Batch == nil || snap.Batch.Panics != snap.Quarantined {
		t.Errorf("batch panics (%+v) != quarantined engines (%d): each group panic quarantines exactly one engine",
			snap.Batch, snap.Quarantined)
	}
	if snap.Batch.Failures == 0 && reg.Fired(fault.PointEpochClose) > 0 {
		// Epoch-close errors fail whole epochs before any group runs,
		// so they land in member errors, not the failures counter; just
		// confirm the point actually fired under the storm.
		t.Logf("epoch_close fired %d times with no group failures", reg.Fired(fault.PointEpochClose))
	}

	// Faults disarmed above: verify exactness survives — the next
	// epochs must serve bitwise-exact answers on the refilled pool.
	clean, err := core.NewEngine(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.RunTopK(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*s.pool.Cap(); i++ {
		var qr queryResponse
		if rec := get(t, h, "/v1/query?r=5&k=1", &qr); rec.Code != http.StatusOK {
			t.Fatalf("post-chaos query %d: status %d: %s", i, rec.Code, rec.Body.String())
		} else if qr.Result.Best.Score != want.Best.Score || qr.Result.Degraded {
			t.Fatalf("post-chaos query %d: got %+v, want exact score %d", i, qr.Result.Best, want.Best.Score)
		}
	}
}
