package shard

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mio/internal/core"
	"mio/internal/data"
	"mio/internal/fault"
	"mio/internal/server/breaker"
)

// waitSlots fails the test unless every engine slot of c's in-process
// shards returns to its pool — the no-slot-leak invariant after hedges,
// retries, panics and cancelled attempts (losers drain asynchronously).
func waitSlots(t *testing.T, c *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for idle, total := c.IdleSlots(); idle != total || total == 0; idle, total = c.IdleSlots() {
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d engine slots returned", idle, total)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func chaosCoordinator(t *testing.T, reg *fault.Registry, cfg Config) *Coordinator {
	t.Helper()
	ds := uniformDS(120, 17)
	cfg.Faults = reg
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.MaxR == 0 {
		cfg.MaxR = 8
	}
	c, err := New(ds, core.Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkDegraded asserts the degraded-answer contract on a sharded
// answer over ds at r: Best.Score = Interval.LB ≤ τ(Best), the oracle's
// optimum inside the interval, and TopK = [Best].
func checkDegraded(t *testing.T, ds *data.Dataset, r float64, res *core.Result, optimum int) {
	t.Helper()
	if !res.Degraded || res.Interval == nil {
		t.Fatalf("want a degraded answer with an interval, got %+v", res)
	}
	iv := *res.Interval
	if res.Best.Score != iv.LB || iv.LB > optimum || optimum > iv.UB {
		t.Fatalf("degraded Best %v, interval %+v, oracle optimum %d", res.Best, iv, optimum)
	}
	if len(res.TopK) != 1 || res.TopK[0] != res.Best {
		t.Fatalf("degraded TopK %v, want [Best] = [%v]", res.TopK, res.Best)
	}
	e, err := core.NewEngine(ds, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	set, err := e.InteractingSet(context.Background(), r, res.Best.Obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) < iv.LB {
		t.Fatalf("degraded Best %v scores %d, below its certified LB", res.Best, len(set))
	}
}

// TestChaosShardDown kills one shard before the scatter: the query
// must still answer 200-style — degraded, with a certified interval
// containing the oracle score — and recover to exact parity once the
// fault clears.
func TestChaosShardDown(t *testing.T) {
	reg := fault.New(1)
	c := chaosCoordinator(t, reg, Config{})
	ds := uniformDS(120, 17)
	want := oracle(t, ds, 4, 1)

	// After=3 skips shards 0–2, so exactly shard 3 dies this query.
	reg.Arm(fault.Rule{Point: fault.PointShardDown, Kind: fault.KindError, P: 1, After: 3})
	res, rep, err := c.Query(context.Background(), 4, 1)
	if err != nil {
		t.Fatalf("shard death must degrade, not fail: %v", err)
	}
	if !res.Degraded || !rep.Degraded || rep.Failed != 1 {
		t.Fatalf("want one degraded shard, got %+v", rep)
	}
	if rep.PerShard[3].State != StateDown {
		t.Fatalf("shard 3 state %q", rep.PerShard[3].State)
	}
	checkDegraded(t, ds, 4, res, want.Best.Score)

	reg.Clear(fault.PointShardDown)
	res, rep, err = c.Query(context.Background(), 4, 1)
	if err != nil || res.Degraded {
		t.Fatalf("did not recover: err=%v degraded=%v", err, res != nil && res.Degraded)
	}
	if res.Best != want.Best {
		t.Fatalf("post-recovery best %v, oracle %v", res.Best, want.Best)
	}
	waitSlots(t, c)
}

// TestChaosDownsCounted pins /metrics shards.downs_total: every shard
// that ends a query down adds one, a total outage included, which
// returns before the assembly loop.
func TestChaosDownsCounted(t *testing.T) {
	reg := fault.New(1)
	c := chaosCoordinator(t, reg, Config{HedgeAfter: -1})
	downs := c.Metrics().Downs

	// After=1 spares the first shard's first attempt: three end down.
	reg.Arm(fault.Rule{Point: fault.PointShardDown, Kind: fault.KindError, P: 1, After: 1})
	before := downs.Value()
	if _, rep, err := c.Query(context.Background(), 4, 1); err != nil || rep.Failed != 3 {
		t.Fatalf("3-of-4 outage: err %v, report %+v", err, rep)
	}
	if got := downs.Value() - before; got != 3 {
		t.Fatalf("3-of-4 outage added %d to downs_total, want 3", got)
	}

	reg.Arm(fault.Rule{Point: fault.PointShardDown, Kind: fault.KindError, P: 1})
	before = downs.Value()
	_, rep, err := c.Query(context.Background(), 4, 1)
	if !errors.Is(err, ErrAllShardsDown) || rep.Failed != 4 {
		t.Fatalf("total outage: err %v, report %+v", err, rep)
	}
	if got := downs.Value() - before; got != 4 {
		t.Fatalf("total outage added %d to downs_total, want the shard count 4", got)
	}
	waitSlots(t, c)
}

// TestChaosEnvelopeTightensInterval: a healthy query teaches each
// shard its upper-bound envelope; when the shard later dies, the
// degraded interval uses that envelope instead of the trivial n−1
// bound — and still contains the truth.
func TestChaosEnvelopeTightensInterval(t *testing.T) {
	reg := fault.New(1)
	c := chaosCoordinator(t, reg, Config{})
	ds := uniformDS(120, 17)
	want := oracle(t, ds, 4, 1)

	if _, _, err := c.Query(context.Background(), 4, 1); err != nil {
		t.Fatal(err)
	}
	reg.Arm(fault.Rule{Point: fault.PointShardDown, Kind: fault.KindError, P: 1, After: 3})
	res, _, err := c.Query(context.Background(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interval == nil || res.Interval.UB >= c.n-1 {
		t.Fatalf("envelope did not tighten the interval: %+v (n=%d)", res.Interval, c.n)
	}
	checkDegraded(t, ds, 4, res, want.Best.Score)
}

// TestChaosPanic arms a panic in every bound attempt: the query must
// fail closed (all shards down) without crashing the process or
// leaking engine slots. A panic in every verification instead fails
// each shard late: the query degrades and the slots come back too. The
// next query — faults cleared, breakers cooled — must answer exactly.
func TestChaosPanic(t *testing.T) {
	reg := fault.New(1)
	c := chaosCoordinator(t, reg, Config{
		BreakCooldown: 30 * time.Millisecond,
		HedgeAfter:    -1,
	})
	ds := uniformDS(120, 17)
	want := oracle(t, ds, 4, 3)

	reg.Arm(fault.Rule{Point: fault.PointShardRun, Kind: fault.KindPanic, P: 1})
	res, rep, err := c.Query(context.Background(), 4, 3)
	if !errors.Is(err, ErrAllShardsDown) {
		t.Fatalf("every shard panicking returned (%v, %v)", res, err)
	}
	if rep.Failed != 4 || rep.Retries == 0 {
		t.Fatalf("want 4 failed shards with retries, got %+v", rep)
	}
	for _, run := range rep.PerShard {
		if run.State != StateDown || !strings.Contains(run.Err, "panic") {
			t.Fatalf("shard %d: state %q err %q", run.ID, run.State, run.Err)
		}
	}
	waitSlots(t, c) // every panicking attempt gives its slot back

	reg.Clear(fault.PointShardRun)
	time.Sleep(50 * time.Millisecond) // let breakers cool down
	reg.Arm(fault.Rule{Point: fault.PointVerification, Kind: fault.KindPanic, P: 1})
	res, rep, err = c.Query(context.Background(), 4, 3)
	if err != nil || !res.Degraded {
		t.Fatalf("every verification panicking returned (%+v, %v)", res, err)
	}
	late := 0
	for _, run := range rep.PerShard {
		if run.State == StateLate && strings.Contains(run.Err, "panic") {
			late++
		} else if run.State != StatePruned {
			t.Fatalf("shard %d: state %q err %q", run.ID, run.State, run.Err)
		}
	}
	if late == 0 {
		t.Fatalf("no shard failed in verification: %+v", rep)
	}
	checkDegraded(t, ds, 4, res, want.Best.Score)
	waitSlots(t, c)

	reg.Clear(fault.PointVerification)
	time.Sleep(50 * time.Millisecond)
	res, rep, err = c.Query(context.Background(), 4, 3)
	if err != nil || res.Degraded {
		t.Fatalf("did not recover from panics: err=%v rep=%+v", err, rep)
	}
	if !sameTopK(res.TopK, want.TopK) {
		t.Fatalf("post-panic answer %v, oracle %v", res.TopK, want.TopK)
	}
	waitSlots(t, c)
}

// TestChaosBreakerTripAndRecover: persistent shard errors must trip
// the per-shard breakers (so later queries stop burning attempts on a
// dead shard), and a half-open probe must close them again once the
// shard heals.
func TestChaosBreakerTripAndRecover(t *testing.T) {
	reg := fault.New(1)
	c := chaosCoordinator(t, reg, Config{
		Retries:       -1, // one attempt per query: breaker math is exact
		HedgeAfter:    -1,
		BreakCooldown: 40 * time.Millisecond,
	})
	ds := uniformDS(120, 17)
	want := oracle(t, ds, 4, 1)

	reg.Arm(fault.Rule{Point: fault.PointShardRun, Kind: fault.KindError, P: 1})
	for q := 0; q < DefaultBreakThreshold; q++ {
		if _, _, err := c.Query(context.Background(), 4, 1); !errors.Is(err, ErrAllShardsDown) {
			t.Fatalf("query %d: %v", q, err)
		}
	}
	for _, sh := range c.shards {
		if sh.br.State() != breaker.Open {
			t.Fatalf("shard %d breaker %v after %d failures", sh.id, sh.br.State(), DefaultBreakThreshold)
		}
	}

	// With breakers open, attempts are refused before any engine runs.
	before := reg.Fired(fault.PointShardRun)
	_, rep, err := c.Query(context.Background(), 4, 1)
	if !errors.Is(err, ErrAllShardsDown) {
		t.Fatalf("open breakers: %v", err)
	}
	if got := reg.Fired(fault.PointShardRun); got != before {
		t.Fatalf("open breakers still ran engines: %d fires → %d", before, got)
	}
	for _, run := range rep.PerShard {
		if !strings.Contains(run.Err, "breaker open") {
			t.Fatalf("shard %d err %q, want breaker refusal", run.ID, run.Err)
		}
	}

	reg.Clear(fault.PointShardRun)
	time.Sleep(60 * time.Millisecond)
	res, rep, err := c.Query(context.Background(), 4, 1)
	if err != nil || res.Degraded {
		t.Fatalf("half-open probe did not recover: err=%v rep=%+v", err, rep)
	}
	if res.Best != want.Best {
		t.Fatalf("post-recovery best %v, oracle %v", res.Best, want.Best)
	}
	for _, sh := range c.shards {
		if sh.br.State() != breaker.Closed {
			t.Fatalf("shard %d breaker %v after successful probe", sh.id, sh.br.State())
		}
	}
	waitSlots(t, c)
}

// TestChaosHedgedScatter: every first attempt straggles past the hedge
// trigger; the answer must stay exact, hedges must be recorded, and
// the losing attempts must return their engines.
func TestChaosHedgedScatter(t *testing.T) {
	reg := fault.New(1)
	c := chaosCoordinator(t, reg, Config{HedgeAfter: 20 * time.Millisecond})
	ds := uniformDS(120, 17)
	want := oracle(t, ds, 4, 1)

	reg.Arm(fault.Rule{Point: fault.PointShardRun, Kind: fault.KindLatency, P: 1, Delay: 150 * time.Millisecond})
	res, rep, err := c.Query(context.Background(), 4, 1)
	if err != nil || res.Degraded {
		t.Fatalf("hedged run failed: err=%v rep=%+v", err, rep)
	}
	if rep.Hedges == 0 {
		t.Fatalf("stragglers did not hedge: %+v", rep)
	}
	if res.Best != want.Best {
		t.Fatalf("hedged best %v, oracle %v", res.Best, want.Best)
	}
	waitSlots(t, c)
}

// TestChaosLateVerification: bounds arrive but every verification
// fails — the coordinator must fall back to the certified bound
// interval rather than erroring.
func TestChaosLateVerification(t *testing.T) {
	reg := fault.New(1)
	c := chaosCoordinator(t, reg, Config{HedgeAfter: -1})
	ds := uniformDS(120, 17)
	want := oracle(t, ds, 4, 1)

	reg.Arm(fault.Rule{Point: fault.PointVerification, Kind: fault.KindError, P: 1})
	res, rep, err := c.Query(context.Background(), 4, 1)
	if err != nil {
		t.Fatalf("late shards must degrade, not fail: %v", err)
	}
	if !res.Degraded || res.Interval == nil {
		t.Fatalf("want degraded interval, got %+v / %+v", res, rep)
	}
	late := 0
	for _, run := range rep.PerShard {
		if run.State == StateLate {
			late++
		}
	}
	if late == 0 {
		t.Fatalf("no shard reported late: %+v", rep)
	}
	checkDegraded(t, ds, 4, res, want.Best.Score)
	waitSlots(t, c)
}

// fakeBackend serves fixed bounds: TopLBs, MaxUB, and a Complete that
// returns res, or err when res is nil.
type fakeBackend struct {
	tops  []core.Scored
	maxUB int
	res   *core.Result
}

func (f *fakeBackend) Bound(context.Context, float64, int) (Bounds, error) { return f, nil }
func (f *fakeBackend) Info() BackendInfo                                   { return BackendInfo{} }
func (f *fakeBackend) Close()                                              {}
func (f *fakeBackend) TopLBs() []core.Scored                               { return f.tops }
func (f *fakeBackend) MaxUB() int                                          { return f.maxUB }
func (f *fakeBackend) Stats() core.PhaseStats                              { return core.PhaseStats{} }
func (f *fakeBackend) Release()                                            {}
func (f *fakeBackend) Complete(context.Context, int) (*core.Result, error) {
	if f.res == nil {
		return nil, errors.New("verification failed")
	}
	return f.res, nil
}

// TestDegradedShardBestIsTopK: a late shard certifies object 5 at 50
// (MaxUB 60) and an ok shard verifies object 7 at 45 exactly. The
// degraded answer is object 5 alone, TopK included, with the interval
// [50, 60].
func TestDegradedShardBestIsTopK(t *testing.T) {
	late := &fakeBackend{tops: []core.Scored{{Obj: 5, Score: 50}}, maxUB: 60}
	exact := []core.Scored{{Obj: 7, Score: 45}}
	ok := &fakeBackend{tops: []core.Scored{{Obj: 7, Score: 40}}, maxUB: 55,
		res: &core.Result{Best: exact[0], TopK: exact}}
	c, err := NewWithBackends([]Backend{late, ok}, 100, Config{HedgeAfter: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, rep, err := c.Query(context.Background(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerShard[0].State != StateLate || rep.PerShard[1].State != StateOK {
		t.Fatalf("shard states %q, %q", rep.PerShard[0].State, rep.PerShard[1].State)
	}
	best := core.Scored{Obj: 5, Score: 50}
	if !res.Degraded || res.Best != best || !sameTopK(res.TopK, []core.Scored{best}) ||
		res.Interval == nil || *res.Interval != (core.Interval{LB: 50, UB: 60}) {
		t.Fatalf("got Best %v, TopK %v, interval %v; want %v, [%v], [50, 60]", res.Best, res.TopK, res.Interval, best, best)
	}
}

// TestChaosScatterMergePoints: faults at the coordinator's own points
// fail the query outright (nothing to certify) without leaking slots.
func TestChaosScatterMergePoints(t *testing.T) {
	reg := fault.New(1)
	c := chaosCoordinator(t, reg, Config{})

	reg.Arm(fault.Rule{Point: fault.PointScatter, Kind: fault.KindError, P: 1})
	if _, _, err := c.Query(context.Background(), 4, 1); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("scatter fault: %v", err)
	}
	reg.Clear(fault.PointScatter)

	reg.Arm(fault.Rule{Point: fault.PointMerge, Kind: fault.KindError, P: 1})
	if _, _, err := c.Query(context.Background(), 4, 1); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("merge fault: %v", err)
	}
	waitSlots(t, c)
}

// TestChaosCancelMidScatter: caller cancellation mid-scatter surfaces
// promptly and returns every engine.
func TestChaosCancelMidScatter(t *testing.T) {
	reg := fault.New(1)
	c := chaosCoordinator(t, reg, Config{HedgeAfter: -1})
	reg.Arm(fault.Rule{Point: fault.PointShardRun, Kind: fault.KindLatency, P: 1, Delay: 100 * time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, _, err := c.Query(ctx, 4, 1)
	if err == nil {
		t.Fatal("cancelled scatter returned a result")
	}
	waitSlots(t, c)
}
