package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mio/internal/data"
)

// pollCtx is a context.Context that reports cancellation after its
// Done channel has been polled `limit` times. It makes cancellation
// tests deterministic: instead of racing a timer against the engine,
// the trip point is a fixed number of ctx checks, so the test can
// assert exactly how much work runs after the "cancel" without any
// wall-clock dependence. Polls are counted atomically because the
// parallel phases poll Done from several goroutines.
type pollCtx struct {
	limit int64
	polls atomic.Int64

	once sync.Once
	done chan struct{}
}

func newPollCtx(limit int64) *pollCtx {
	return &pollCtx{limit: limit, done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.polls.Add(1) >= c.limit {
		c.once.Do(func() { close(c.done) })
	}
	return c.done
}

func (c *pollCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

func (c *pollCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *pollCtx) Value(any) any               { return nil }

// denseUniform returns a dataset dense enough at r=8 that most objects
// are candidates and verification dominates.
func denseUniform(n, m int) *data.Dataset {
	return data.GenUniform(data.UniformConfig{N: n, M: m, FieldSize: 60, Spread: 4, Seed: 42})
}

// cancelFresh returns a fresh engine for a cancelled query whose work a
// test compares with a full run's: on the engine that ran the full
// query, the score memo would settle the candidates without a walk, and
// Verified and DistanceComps would stay low with no cancellation at
// all.
func cancelFresh(t *testing.T, ds *data.Dataset, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCancelAbortsMidVerification checks that a context cancelled
// while verification is underway stops the phase after a bounded
// number of candidates rather than verifying the full candidate set.
func TestCancelAbortsMidVerification(t *testing.T) {
	ds := denseUniform(1500, 6)
	e, err := NewEngine(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// k = n disables Corollary 1 early termination, so an uncancelled
	// run verifies every candidate.
	full, err := e.RunTopK(8, ds.N())
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Verified < 100 {
		t.Fatalf("setup: only %d candidates verified; dataset not dense enough to test cancellation", full.Stats.Verified)
	}

	// Budget enough polls to get through grid mapping, lower- and
	// upper-bounding (a handful of checks each) plus a few verified
	// candidates, then trip. A fresh engine: on e the score memo would
	// settle the candidates without a walk (cancelFresh).
	ctx := newPollCtx(40)
	q := newQuery(cancelFresh(t, ds, Options{}), 8, ds.N())
	q.ctx = ctx
	res, err := q.run()
	if err != context.Canceled {
		t.Fatalf("cancelled run returned (%v, %v), want context.Canceled", res, err)
	}
	if q.stats.Verified >= full.Stats.Verified/2 {
		t.Errorf("cancelled run verified %d of %d candidates; cancellation did not abort mid-verification",
			q.stats.Verified, full.Stats.Verified)
	}
}

// TestCancelAbortsInsideExactScore checks the in-loop poll of
// exactScore: with few, point-heavy objects, cancellation must land
// inside one object's scoring loop, bounding the distance computations
// to a fraction of the full run's.
func TestCancelAbortsInsideExactScore(t *testing.T) {
	ds := denseUniform(30, 4000)
	e, err := NewEngine(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.RunTopK(8, ds.N())
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.DistanceComps < 10000 {
		t.Fatalf("setup: only %d distance comps in the full run; objects not heavy enough", full.Stats.DistanceComps)
	}

	// Trip shortly after verification starts: the first exact score
	// polls every 256 points, so the budget lands mid-object.
	ctx := newPollCtx(12)
	q := newQuery(cancelFresh(t, ds, Options{}), 8, ds.N())
	q.ctx = ctx
	if _, err := q.run(); err != context.Canceled {
		t.Fatalf("cancelled run returned err=%v, want context.Canceled", err)
	}
	if q.stats.DistanceComps >= full.Stats.DistanceComps/4 {
		t.Errorf("cancelled run performed %d of %d distance comps; the exact-score loop ignored ctx",
			q.stats.DistanceComps, full.Stats.DistanceComps)
	}
}

// TestCancelAbortsParallelVerification covers the per-worker poll in
// parallelExactScore.
func TestCancelAbortsParallelVerification(t *testing.T) {
	ds := denseUniform(30, 4000)
	e, err := NewEngine(ds, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	full, err := e.RunTopK(8, ds.N())
	if err != nil {
		t.Fatal(err)
	}
	ctx := newPollCtx(25)
	q := newQuery(cancelFresh(t, ds, Options{Workers: 4}), 8, ds.N())
	q.ctx = ctx
	if _, err := q.run(); err != context.Canceled {
		t.Fatalf("cancelled parallel run returned err=%v, want context.Canceled", err)
	}
	if q.stats.DistanceComps >= full.Stats.DistanceComps/4 {
		t.Errorf("cancelled parallel run performed %d of %d distance comps",
			q.stats.DistanceComps, full.Stats.DistanceComps)
	}
}

// TestCancelPromptWallClock is the black-box promptness check: cancel
// a running query after a few milliseconds and require the call to
// return well before the uncancelled runtime. Bounds are deliberately
// loose — the deterministic poll-counting tests above pin the exact
// behaviour; this one only guards against a phase that ignores ctx
// entirely. The cancelled query runs on a fresh engine: on the engine
// that timed the full run, the score memo and the τ^upp entry answer
// it in a few milliseconds, before the cancel lands.
func TestCancelPromptWallClock(t *testing.T) {
	ds := denseUniform(2500, 48)
	engine := func() *Engine {
		e, err := NewEngine(ds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := engine()
	t0 := time.Now()
	if _, err := e.RunTopK(9, ds.N()); err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(t0)
	if fullDur < 30*time.Millisecond {
		t.Skipf("full run took only %v; too fast to observe mid-run cancellation", fullDur)
	}

	e = engine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	t0 = time.Now()
	_, err := e.RunTopKContext(ctx, 9, ds.N(), false)
	cancelledDur := time.Since(t0)
	if err != context.Canceled {
		t.Fatalf("cancelled run returned err=%v, want context.Canceled", err)
	}
	if cancelledDur > fullDur/2+50*time.Millisecond {
		t.Errorf("cancelled run took %v (full run %v); cancellation is not prompt", cancelledDur, fullDur)
	}
}

// TestContextVariantsCancelled checks that the analysis entry points
// honour an already-cancelled context.
func TestContextVariantsCancelled(t *testing.T) {
	ds := denseUniform(200, 8)
	e, err := NewEngine(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.AllScores(ctx, 4); err != context.Canceled {
		t.Errorf("AllScores: err=%v, want context.Canceled", err)
	}
	if _, err := e.InteractingSet(ctx, 4, 0); err != context.Canceled {
		t.Errorf("InteractingSet: err=%v, want context.Canceled", err)
	}
	if _, err := e.Sweep(ctx, []float64{2, 4}, 1); err != context.Canceled {
		t.Errorf("Sweep: err=%v, want context.Canceled", err)
	}
}
