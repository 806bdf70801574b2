package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/fault"
)

// TestChaosSurvival hammers a small engine pool with concurrent
// queries while fault injection misbehaves underneath: random request
// errors, verification panics, and verification latency spikes long
// enough to blow the query deadline. The server must keep answering
// with sane statuses, never leak a pool slot, recover every panic, and
// certify every degraded answer with an interval that contains the
// true score.
func TestChaosSurvival(t *testing.T) {
	reg := fault.New(11)
	reg.Arm(fault.Rule{Point: fault.PointRequest, Kind: fault.KindError, P: 0.05})
	reg.Arm(fault.Rule{Point: fault.PointVerification, Kind: fault.KindPanic, P: 0.08})
	reg.Arm(fault.Rule{Point: fault.PointVerification, Kind: fault.KindLatency, P: 0.25, Delay: 60 * time.Millisecond})

	ds := testDataset(300, 3)
	s, err := New(ds, core.Options{Labels: labelstore.NewStore()}, Config{
		MaxInFlight:   2,
		AdmissionWait: 5 * time.Millisecond,
		QueryTimeout:  25 * time.Millisecond,
		DisableCache:  true, // every request must reach the engine
		Faults:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	type degradedObs struct {
		r      float64
		obj    int
		lb, ub int
	}
	var (
		mu       sync.Mutex
		observed []degradedObs
		statuses = map[int]int{}
	)
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// A unique threshold per request defeats coalescing, so
				// every 200 is an independent engine run.
				r := 4 + float64(w*perWorker+i)*1e-6
				url := fmt.Sprintf("/v1/query?r=%s&k=1", rKey(r))
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
						continue
					}
					if qr.Result.Degraded {
						iv := qr.Result.Interval
						if iv == nil || iv.LB > iv.UB || qr.Result.Best.Score != iv.LB {
							t.Errorf("malformed degraded result: %+v", qr.Result)
							continue
						}
						mu.Lock()
						observed = append(observed, degradedObs{r: r, obj: qr.Result.Best.Obj, lb: iv.LB, ub: iv.UB})
						mu.Unlock()
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

	// Quiescence: every slot taken during the storm must be back —
	// panics included — or the pool has shrunk forever.
	if s.pool.Idle() != s.pool.Cap() {
		t.Errorf("engine pool leaked: %d of %d slots present", s.pool.Idle(), s.pool.Cap())
	}

	var hr healthResponse
	if rec := get(t, h, "/healthz", &hr); rec.Code != http.StatusOK || hr.Status != "ok" {
		t.Errorf("healthz after chaos: code=%d status=%q", rec.Code, hr.Status)
	}

	var snap MetricsSnapshot
	get(t, h, "/metrics", &snap)
	if snap.Panics == 0 {
		t.Error("panic rule never bit: panic_total = 0")
	}
	if snap.Degraded == 0 || len(observed) == 0 {
		t.Errorf("latency rule never degraded a request: degraded_total=%d observed=%d (statuses %v)",
			snap.Degraded, len(observed), statuses)
	}
	if statuses[http.StatusOK] == 0 {
		t.Errorf("no request succeeded under chaos: %v", statuses)
	}

	// Every degraded interval must contain the true score, recomputed
	// on a clean engine with no faults armed.
	clean, err := core.NewEngine(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range observed {
		ids, err := clean.InteractingSet(context.Background(), o.r, o.obj)
		if err != nil {
			t.Fatalf("clean recompute r=%g obj=%d: %v", o.r, o.obj, err)
		}
		if score := len(ids); score < o.lb || score > o.ub {
			t.Errorf("degraded interval [%d,%d] for r=%g obj=%d misses true score %d",
				o.lb, o.ub, o.r, o.obj, score)
		}
	}

	// Disarm and verify the engine still answers exactly: the chaos
	// must not have poisoned it. The tight chaos
	// deadline is relaxed first — all workers have joined, so nothing
	// races this write — because exactness, not latency, is under test.
	reg.Clear(fault.PointRequest)
	reg.Clear(fault.PointVerification)
	s.cfg.QueryTimeout = 30 * time.Second
	want, err := clean.RunTopK(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*s.pool.Cap(); i++ { // touch every slot at least once
		var qr queryResponse
		if rec := get(t, h, "/v1/query?r=5&k=1", &qr); rec.Code != http.StatusOK {
			t.Fatalf("post-chaos query %d: status %d: %s", i, rec.Code, rec.Body.String())
		} else if qr.Result.Best.Score != want.Best.Score || qr.Result.Degraded {
			t.Fatalf("post-chaos query %d: got %+v, want exact score %d", i, qr.Result.Best, want.Best.Score)
		}
	}
}

// TestEnginePanicDeterministic pins the engine panic path: a guaranteed
// verification panic yields exactly one 500 and one recovered panic,
// gives its slot back, and the very next query, with the rule cleared,
// succeeds exactly on the same engine.
func TestEnginePanicDeterministic(t *testing.T) {
	reg := fault.New(1)
	reg.Arm(fault.Rule{Point: fault.PointVerification, Kind: fault.KindPanic, P: 1})
	s, err := New(testDataset(60, 5), core.Options{Labels: labelstore.NewStore()}, Config{Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rec := get(t, h, "/v1/query?r=4&k=1", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking query: status %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "injected panic") {
		t.Errorf("500 body does not surface the panic: %s", rec.Body.String())
	}
	var snap MetricsSnapshot
	get(t, h, "/metrics", &snap)
	if snap.Panics != 1 {
		t.Errorf("panic_total=%d, want 1", snap.Panics)
	}
	if s.pool.Idle() != s.pool.Cap() {
		t.Fatalf("slot leaked after the panic: %d of %d", s.pool.Idle(), s.pool.Cap())
	}

	reg.Clear(fault.PointVerification)
	var qr queryResponse
	if rec := get(t, h, "/v1/query?r=4&k=1", &qr); rec.Code != http.StatusOK {
		t.Fatalf("query after the panic: status %d: %s", rec.Code, rec.Body.String())
	}
	if qr.Result == nil || qr.Result.Degraded {
		t.Errorf("engine returned a non-exact result after the panic: %+v", qr.Result)
	}
}

// TestSwapBreakerRecovery walks the swap circuit breaker through its
// whole life: repeated failing swaps trip it, a tripped breaker
// fast-fails with 503 + Retry-After without touching the file, and
// after the cooldown a good swap closes it again.
func TestSwapBreakerRecovery(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.bin")
	if err := data.SaveFile(good, testDataset(40, 2)); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.bin")

	const cooldown = 80 * time.Millisecond
	s, err := New(testDataset(80, 7), core.Options{}, Config{
		AllowSwap:          true,
		swapBreakThreshold: 2,
		swapBreakCooldown:  cooldown,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	post := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		body := strings.NewReader(fmt.Sprintf(`{"path": %q}`, path))
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/dataset", body))
		return rec
	}

	for i := 0; i < 2; i++ {
		if rec := post(missing); rec.Code != http.StatusBadRequest {
			t.Fatalf("failing swap %d: status %d, want 400", i, rec.Code)
		}
	}
	// Tripped: even a good path is refused without being read.
	rec := post(good)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("swap on open breaker: status %d, want 503", rec.Code)
	}
	if secs, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || secs < 1 {
		t.Errorf("open breaker sent Retry-After %q, want a positive integer", rec.Header().Get("Retry-After"))
	}
	var snap MetricsSnapshot
	get(t, h, "/metrics", &snap)
	if snap.SwapBreaker.State != "open" || snap.SwapBreaker.Refused != 1 {
		t.Errorf("breaker stats = %+v, want open with 1 refused", snap.SwapBreaker)
	}

	// A malformed body while open must not consume the eventual
	// half-open probe.
	badBody := httptest.NewRecorder()
	h.ServeHTTP(badBody, httptest.NewRequest("POST", "/v1/dataset", strings.NewReader("{")))
	if badBody.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", badBody.Code)
	}

	time.Sleep(cooldown + 20*time.Millisecond)
	if rec := post(good); rec.Code != http.StatusOK {
		t.Fatalf("probe swap after cooldown: status %d: %s", rec.Code, rec.Body.String())
	}
	get(t, h, "/metrics", &snap)
	if snap.SwapBreaker.State != "closed" || snap.SwapBreaker.ConsecutiveFailures != 0 {
		t.Errorf("breaker after recovery = %+v, want closed with 0 failures", snap.SwapBreaker)
	}
	if s.Epoch() != 1 {
		t.Errorf("epoch = %d after one successful swap, want 1", s.Epoch())
	}
	if got := s.Dataset().N(); got != 40 {
		t.Errorf("served dataset has %d objects after swap, want 40", got)
	}
}
