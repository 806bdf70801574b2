package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/fault"
	"mio/internal/geom"
)

// ubCacheStrategies are the execution options whose τ^upp vectors one
// cache must serve interchangeably: the serial pipeline and every LB/UB
// strategy at two workers.
var ubCacheStrategies = []Options{
	{Workers: 1},
	{Workers: 2, LB: LBGreedyD, UB: UBGreedyP},
	{Workers: 2, LB: LBHashP, UB: UBGreedyP},
	{Workers: 2, LB: LBGreedyD, UB: UBGreedyD},
	{Workers: 2, LB: LBHashP, UB: UBGreedyD},
}

// spec is one query of a stream: threshold and k.
type spec struct {
	R float64
	K int
}

// comparableResult is what two runs of one query must agree on:
// everything except wall-clock durations and the index byte sizes,
// which legitimately differ when structures are shared.
type comparableResult struct {
	Best     Scored
	TopK     []Scored
	Degraded bool
	Interval *Interval

	UsedLabels    bool
	Candidates    int
	Verified      int
	DistanceComps int
	AdjComputed   int
	SmallCells    int
	LargeCells    int
}

func stripVolatile(r *Result) *comparableResult {
	if r == nil {
		return nil
	}
	return &comparableResult{
		Best:     r.Best,
		TopK:     r.TopK,
		Degraded: r.Degraded,
		Interval: r.Interval,

		UsedLabels:    r.Stats.UsedLabels,
		Candidates:    r.Stats.Candidates,
		Verified:      r.Stats.Verified,
		DistanceComps: r.Stats.DistanceComps,
		AdjComputed:   r.Stats.AdjComputed,
		SmallCells:    r.Stats.SmallCells,
		LargeCells:    r.Stats.LargeCells,
	}
}

// ubCacheStream is a query stream that revisits every ⌈r⌉ of the
// dataset's thresholds with other exact r and k, so a reused engine
// answers most of it from the cache.
func ubCacheStream(name string) []spec {
	var specs []spec
	for _, base := range rValues(name) {
		ceil := math.Ceil(base)
		for i, d := range []float64{0, 0.3, 0, 0.6} {
			specs = append(specs, spec{R: ceil - d, K: 1 + i%3})
		}
	}
	return specs
}

// withoutMemo drops e's score memo (memo.go). Recorded scores let a
// warm engine skip walks and candidates, so its counters depend on the
// queries before; the tests that pin what the τ^upp cache and the warm
// grid keep, every work counter of a cold engine, run without one.
// TestScoreMemoMatchesColdEngine covers the memo.
func withoutMemo(e *Engine) *Engine {
	e.memo = nil
	return e
}

// warmColdStream runs specs on one reused engine without a score memo
// and on a fresh engine per query and fails on the first Result that
// differs after stripVolatile. It returns the reused engine for the
// caller to inspect.
func warmColdStream(t *testing.T, at string, ds *data.Dataset, opts Options, specs []spec) *Engine {
	t.Helper()
	warm, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatalf("%s: %v", at, err)
	}
	warmColdStreamOn(t, at, withoutMemo(warm), ds, opts, specs)
	return warm
}

// newWarmEngine returns an engine without a score memo that keeps every
// warm grid: the test datasets' grids are sparse against their few
// points, and the default budget would keep only some of them.
func newWarmEngine(t *testing.T, ds *data.Dataset, opts Options) *Engine {
	t.Helper()
	e, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.ub.budget = 1 << 30
	return withoutMemo(e)
}

// warmColdStreamOn is warmColdStream on a given reused engine.
func warmColdStreamOn(t *testing.T, at string, warm *Engine, ds *data.Dataset, opts Options, specs []spec) {
	t.Helper()
	for _, sp := range specs {
		got, err := warm.RunTopK(sp.R, sp.K)
		if err != nil {
			t.Fatalf("%s r=%g k=%d warm: %v", at, sp.R, sp.K, err)
		}
		cold, _ := NewEngine(ds, opts)
		want, err := cold.RunTopK(sp.R, sp.K)
		if err != nil {
			t.Fatalf("%s r=%g k=%d cold: %v", at, sp.R, sp.K, err)
		}
		if g, w := stripVolatile(got), stripVolatile(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s r=%g k=%d: warm %+v, cold %+v", at, sp.R, sp.K, g, w)
		}
	}
}

// TestUpperBoundCacheWarmEqualsCold pins the τ^upp cache's contract: a
// query answered from the cache returns what a fresh engine returns,
// work counters included — AdjComputed too, which a hit charges as the
// cold pass would have. Every hit is also a grid hit: the query maps
// its small grid only and verifies on the warm grid and its b^adj memo.
func TestUpperBoundCacheWarmEqualsCold(t *testing.T) {
	for name, ds := range testDatasets(t) {
		specs := ubCacheStream(name)
		for _, opts := range ubCacheStrategies {
			at := fmt.Sprintf("%s w=%d %v %v", name, opts.Workers, opts.LB, opts.UB)
			warm := newWarmEngine(t, ds, opts)
			warmColdStreamOn(t, at, warm, ds, opts, specs)
			// Three ⌈r⌉ per dataset: every other query of the stream hits.
			if st := warm.IndexCache(); st.Misses != 3 || st.Hits != uint64(len(specs)-3) || st.GridHits != st.Hits || st.Entries != 3 || st.Grids != 3 || st.GridBytes > warm.ub.budget {
				t.Errorf("%s: index cache %+v, want 3 misses, %d hits, all of them grid hits, 3 entries and 3 grids within %d bytes", at, st, len(specs)-3, warm.ub.budget)
			}
		}
		if planar(ds) {
			warmColdStream(t, name+" dims=2", ds, Options{Dims: 2}, specs)
		}
	}
}

// TestUpperBoundCacheBoundComplete runs the split-phase path the sharded
// coordinator uses, with a restrict mask and a verification floor, on a
// reused engine and on fresh ones.
func TestUpperBoundCacheBoundComplete(t *testing.T) {
	bg := context.Background()
	run := func(e *Engine, sp spec, allowed []bool, floor int) *Result {
		t.Helper()
		bs, err := e.Bound(bg, sp.R, sp.K, allowed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := bs.Complete(bg, floor)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for name, ds := range testDatasets(t) {
		allowed := make([]bool, ds.N())
		for i := range allowed {
			allowed[i] = i%3 != 1
		}
		for _, opts := range []Options{{}, {Workers: 2}} {
			warm, _ := NewEngine(ds, opts)
			withoutMemo(warm)
			for _, sp := range ubCacheStream(name) {
				fresh := func() *Engine { e, _ := NewEngine(ds, opts); return e }
				own := run(fresh(), sp, allowed, 0)
				// The k-th exact score among the allowed objects is the
				// highest floor that is still sound.
				floor := own.TopK[len(own.TopK)-1].Score
				for _, c := range []struct {
					floor     int
					got, want *Result
				}{
					{0, run(warm, sp, allowed, 0), own},
					{floor, run(warm, sp, allowed, floor), run(fresh(), sp, allowed, floor)},
				} {
					if g, w := stripVolatile(c.got), stripVolatile(c.want); !reflect.DeepEqual(g, w) {
						t.Fatalf("%s w=%d r=%g k=%d floor=%d: warm %+v, cold %+v", name, opts.Workers, sp.R, sp.K, c.floor, g, w)
					}
				}
			}
			if warm.IndexCache().Hits == 0 {
				t.Errorf("%s w=%d: the reused engine never hit", name, opts.Workers)
			}
		}
	}
}

// TestUpperBoundCacheBypass checks that label and temporal queries
// neither read nor fill the cache. Temporal queries leave the score
// memo alone too; label queries record their scores in it.
func TestUpperBoundCacheBypass(t *testing.T) {
	ds := testDatasets(t)["bird"]
	labelled, _ := NewEngine(ds, Options{Labels: labelstore.NewStore()})
	te, err := NewTemporalEngine(data.WithTimestamps(ds, 1, 100, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := labelled.RunTopK(40, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := te.RunTopK(40, 4, 2); err != nil {
			t.Fatal(err)
		}
	}
	withLabels := labelled.IndexCache()
	if withLabels.Memo.Steps == 0 {
		t.Errorf("labelled engine: index cache %+v, want recorded scores", withLabels)
	}
	withLabels.Memo = MemoStats{}
	for what, st := range map[string]IndexCacheStats{"labelled": withLabels, "temporal": te.e.IndexCache()} {
		if st != (IndexCacheStats{}) {
			t.Errorf("%s engine: index cache %+v, want untouched", what, st)
		}
	}
}

// TestUpperBoundCacheSwapInvalidates swaps a pool to a dataset with the
// same n whose true answer a stale vector would prune: every object of
// the first dataset is isolated (τ^upp = 0), every object of the second
// interacts with all others. Only a cache that Swap replaces answers
// the second dataset right.
func TestUpperBoundCacheSwapInvalidates(t *testing.T) {
	const n = 6
	isolated, clumped := &data.Dataset{Name: "isolated"}, &data.Dataset{Name: "clumped"}
	for i := 0; i < n; i++ {
		var far, near []geom.Point
		for j := 0; j < 3; j++ {
			far = append(far, geom.Pt(1000*float64(i)+0.1*float64(j), 0, 0))
			near = append(near, geom.Pt(0.5+0.001*float64(i), 0.5+0.001*float64(j), 0.5))
		}
		isolated.Objects = append(isolated.Objects, data.Object{ID: i, Pts: far})
		clumped.Objects = append(clumped.Objects, data.Object{ID: i, Pts: near})
	}
	p, err := NewPool(isolated, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	query := func(r float64) *Result {
		t.Helper()
		e, err := p.Acquire(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		res, err := e.RunTopK(r, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := query(2.5); res.Best.Score != 0 {
		t.Fatalf("isolated objects: best %+v, want score 0", res.Best)
	}
	if err := p.Swap(clumped, Options{}); err != nil {
		t.Fatal(err)
	}
	got := query(2.2) // the ⌈r⌉ cached before the swap
	fresh, _ := NewEngine(clumped, Options{})
	want, _ := fresh.RunTopK(2.2, 1)
	if want.Best.Score != n-1 {
		t.Fatalf("clumped objects: fresh engine best %+v, want score %d", want.Best, n-1)
	}
	if g, w := stripVolatile(got), stripVolatile(want); !reflect.DeepEqual(g, w) {
		t.Errorf("after Swap: %+v, fresh engine %+v", g, w)
	}
	if st := p.IndexCache(); st.Hits != 0 || st.Misses != 1 {
		t.Errorf("after Swap: index cache %+v, want one miss on a new cache", st)
	}
}

// cancelAtUpperBounding is a context that is cancelled from the moment
// the registry's upper-bounding point has fired: the first poll inside
// the pass sees it, so the pass is cut short.
type cancelAtUpperBounding struct {
	context.Context
	reg *fault.Registry
}

func (c cancelAtUpperBounding) Done() <-chan struct{} {
	if c.reg.Fired(fault.PointUpperBounding) > 0 {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return nil
}

func (c cancelAtUpperBounding) Err() error {
	if c.reg.Fired(fault.PointUpperBounding) > 0 {
		return context.Canceled
	}
	return nil
}

// TestUpperBoundCacheCancelledPublishesNothing cancels a query inside
// upper bounding: the partial vector must not enter the cache, so the
// next query at that ⌈r⌉ is exact and counts a cold run's work.
func TestUpperBoundCacheCancelledPublishesNothing(t *testing.T) {
	ds := testDatasets(t)["syn"]
	const r, k = 12.0, 2
	reg := fault.New(1)
	reg.Arm(fault.Rule{Point: fault.PointUpperBounding, Kind: fault.KindLatency, P: 1})
	eng, _ := NewEngine(ds, Options{Faults: reg})
	ctx := cancelAtUpperBounding{Context: context.Background(), reg: reg}
	if _, err := eng.RunTopKContext(ctx, r, k, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query: err %v, want context.Canceled", err)
	}
	if st := eng.IndexCache(); st.Entries != 0 {
		t.Fatalf("cancelled query published: index cache %+v", st)
	}
	got, err := eng.RunTopK(r, k)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := NewEngine(ds, Options{})
	want, _ := fresh.RunTopK(r, k)
	if g, w := stripVolatile(got), stripVolatile(want); !reflect.DeepEqual(g, w) {
		t.Errorf("after a cancelled pass: %+v, fresh engine %+v", g, w)
	}
}

// TestUpperBoundCacheHitFiresFault checks that the fault points guard a
// hit as they guard a computed pass. The lookup is grid mapping's, after
// its fault point: a query failed there counts no lookup, one failed at
// upper bounding has counted its hit, and a grid hit. At ⌈r⌉ = 60 the
// Bird stand-in's grid, 775 cells for 3 600 points, fits the warm-grid
// budget; at ⌈r⌉ = 40, 1 124 cells, it no longer does once its b^adj
// memo fills.
func TestUpperBoundCacheHitFiresFault(t *testing.T) {
	ds := testDatasets(t)["bird"]
	reg := fault.New(1)
	eng, _ := NewEngine(ds, Options{Faults: reg})
	if _, err := eng.RunTopK(60, 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		point    string
		lookedUp bool
	}{{fault.PointGridMapping, false}, {fault.PointUpperBounding, true}} {
		before := eng.IndexCache()
		reg.Arm(fault.Rule{Point: c.point, Kind: fault.KindError, P: 1})
		if _, err := eng.RunTopK(59.5, 1); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("hit with an armed %s fault: err %v, want ErrInjected", c.point, err)
		}
		reg.Clear(c.point)
		st := eng.IndexCache()
		if hit := st.Hits - before.Hits; hit != st.GridHits-before.GridHits || (hit == 1) != c.lookedUp {
			t.Errorf("%s fault: index cache %+v after %+v, want a grid hit %v", c.point, st, before, c.lookedUp)
		}
	}
	// A rule that fires without effect shows the point is reached on a
	// grid hit.
	reg.Arm(fault.Rule{Point: fault.PointGridMapping, Kind: fault.KindLatency, P: 1})
	fired := reg.Fired(fault.PointGridMapping)
	if _, err := eng.RunTopK(59.5, 1); err != nil {
		t.Fatal(err)
	}
	if st := eng.IndexCache(); st.Hits != 2 || st.GridHits != 2 {
		t.Errorf("index cache %+v, want the last query to hit its grid", st)
	}
	if n := reg.Fired(fault.PointGridMapping) - fired; n != 1 {
		t.Errorf("grid mapping's fault point fired %d times on a grid hit, want 1", n)
	}
}

// TestUpperBoundCacheConcurrentFirstTouch has two pooled queries miss
// on one ⌈r⌉ at once; both publish, the cache keeps one vector, and
// every answer equals a fresh engine's. Run under -race.
func TestUpperBoundCacheConcurrentFirstTouch(t *testing.T) {
	ds := testDatasets(t)["syn"]
	p, err := NewPool(ds, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	withoutMemo(p.eng.Load())
	fresh, _ := NewEngine(ds, Options{})
	withoutMemo(fresh)
	specs := []spec{{R: 12, K: 1}, {R: 11.5, K: 3}}
	want := make([]*comparableResult, len(specs))
	for i, sp := range specs {
		res, _ := fresh.RunTopK(sp.R, sp.K)
		want[i] = stripVolatile(res)
	}
	engs := make([]*Engine, len(specs))
	for i := range engs {
		if engs[i], err = p.Acquire(context.Background(), -1); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*comparableResult, len(specs))
	var start, wg sync.WaitGroup
	start.Add(1)
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp spec) {
			defer wg.Done()
			start.Wait()
			res, err := engs[i].RunTopK(sp.R, sp.K)
			if err == nil {
				got[i] = stripVolatile(res)
			}
		}(i, sp)
	}
	start.Done()
	wg.Wait()
	for i := range engs {
		p.Release()
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("query %d: %+v, fresh engine %+v", i, got[i], want[i])
		}
	}
	e, _ := p.Acquire(context.Background(), -1)
	defer p.Release()
	res, err := e.RunTopK(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g := stripVolatile(res); !reflect.DeepEqual(g, want[0]) {
		t.Errorf("after the concurrent first touch: %+v, fresh engine %+v", g, want[0])
	}
	if st := p.IndexCache(); st.Entries != 1 || st.Hits+st.Misses != 3 || st.Hits == 0 {
		t.Errorf("index cache %+v, want one entry and a hit after the first touch", st)
	}
}

// TestUpperBoundCacheEviction walks more distinct ⌈r⌉ than the cache
// holds, then returns to the first: it was evicted, is computed again,
// and the answer is still exact.
func TestUpperBoundCacheEviction(t *testing.T) {
	ds := testDatasets(t)["uniform"]
	var specs []spec
	for c := 1; c <= ubCacheCap+1; c++ {
		specs = append(specs, spec{R: float64(c) - 0.5, K: 2})
	}
	specs = append(specs, spec{R: 0.75, K: 1}, spec{R: float64(ubCacheCap+1) - 0.25, K: 1})
	eng := warmColdStream(t, "uniform", ds, Options{}, specs)
	want := IndexCacheStats{Misses: ubCacheCap + 2, Hits: 1, Entries: ubCacheCap}
	st := eng.IndexCache()
	if got := (IndexCacheStats{Hits: st.Hits, Misses: st.Misses, Entries: st.Entries}); got != want {
		t.Errorf("index cache %+v, want %+v", st, want)
	}
	if st.Filled > st.Entries*ds.N() {
		t.Errorf("index cache %+v holds more than %d values per entry", st, ds.N())
	}
}

// fillStream is a threshold-descending stream at one ⌈r⌉: k rises from
// 1 to 5 while r falls from ⌈r⌉ to ⌈r⌉ − 0.9, so every query may need
// τ^upp for objects the ones before it pruned by their count bound.
func fillStream(ceil float64) []spec {
	var specs []spec
	for k := 1; k <= 5; k++ {
		specs = append(specs, spec{R: ceil - 0.9*float64(k-1)/4, K: k})
	}
	return specs
}

// TestUpperBoundCacheFillsInPlace runs fillStream on one reused engine:
// each query fills the entry the first one published with the τ^upp of
// its own survivors, and each Result equals a fresh engine's,
// Candidates and AdjComputed included. On some dataset the first query
// must leave values for the later ones to fill.
func TestUpperBoundCacheFillsInPlace(t *testing.T) {
	grew := false
	for name, ds := range testDatasets(t) {
		specs := fillStream(math.Ceil(rValues(name)[1]))
		first, _ := NewEngine(ds, Options{})
		if _, err := first.RunTopK(specs[0].R, specs[0].K); err != nil {
			t.Fatal(err)
		}
		for _, opts := range ubCacheStrategies {
			at := fmt.Sprintf("%s w=%d %v %v", name, opts.Workers, opts.LB, opts.UB)
			warm := warmColdStream(t, at, ds, opts, specs)
			st := warm.IndexCache()
			if st.Misses != 1 || st.Entries != 1 || st.Filled < first.IndexCache().Filled || st.Filled > ds.N() {
				t.Errorf("%s: index cache %+v, want one entry holding %d..%d values", at, st, first.IndexCache().Filled, ds.N())
			}
			grew = grew || st.Filled > first.IndexCache().Filled
		}
	}
	if !grew {
		t.Error("no stream filled its entry past what its first query left")
	}
}

// TestUpperBoundCacheConcurrentFill has one query publish an entry, then
// two pooled queries fill it at once with lower thresholds. Every answer
// equals a fresh engine's. Run under -race.
func TestUpperBoundCacheConcurrentFill(t *testing.T) {
	for name, ds := range testDatasets(t) {
		specs := fillStream(math.Ceil(rValues(name)[1]))
		want := make([]*comparableResult, len(specs))
		for i, sp := range specs {
			fresh, _ := NewEngine(ds, Options{})
			res, _ := fresh.RunTopK(sp.R, sp.K)
			want[i] = stripVolatile(res)
		}
		p, err := NewPool(ds, Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		withoutMemo(p.eng.Load())
		e, _ := p.Acquire(context.Background(), -1)
		res, err := e.RunTopK(specs[0].R, specs[0].K)
		p.Release()
		if err != nil {
			t.Fatal(err)
		}
		if g := stripVolatile(res); !reflect.DeepEqual(g, want[0]) {
			t.Fatalf("%s: publishing query %+v, fresh engine %+v", name, g, want[0])
		}
		got := make([]*comparableResult, len(specs))
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			e, err := p.Acquire(context.Background(), -1)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(e *Engine, w int) {
				defer wg.Done()
				defer p.Release()
				for i := 1 + w; i < len(specs); i += 2 {
					if res, err := e.RunTopK(specs[i].R, specs[i].K); err == nil {
						got[i] = stripVolatile(res)
					}
				}
			}(e, w)
		}
		wg.Wait()
		for i := 1; i < len(specs); i++ {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s r=%g k=%d: %+v, fresh engine %+v", name, specs[i].R, specs[i].K, got[i], want[i])
			}
		}
		if st := p.IndexCache(); st.Misses != 1 || st.Hits != uint64(len(specs)-1) || st.Filled > ds.N() {
			t.Errorf("%s: index cache %+v, want one miss, then hits into one entry", name, st)
		}
	}
}

// TestWarmGridCancelledMapping cancels a query inside a warm grid
// mapping. The sweep it cuts short is its small grid's, so no bound
// exists: the query declines whether or not it may degrade, and it
// leaves the cache as it found it but for the counted grid hit. The
// next query at that ⌈r⌉ is exact.
func TestWarmGridCancelledMapping(t *testing.T) {
	ds := testDatasets(t)["syn"]
	for _, opts := range []Options{{}, {Workers: 2}} {
		eng := newWarmEngine(t, ds, opts)
		if _, err := eng.RunTopK(12, 2); err != nil {
			t.Fatal(err)
		}
		for _, degrade := range []bool{false, true} {
			before := eng.IndexCache()
			q := newQuery(eng, 11.5, 2)
			// The first poll is the small grid's sweep, at object 127.
			q.ctx = newPollCtx(1)
			q.degradeOK = degrade
			if res, err := q.run(); res != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("w=%d degrade=%v: (%+v, %v), want context.Canceled", opts.Workers, degrade, res, err)
			}
			if !q.gmBroke {
				t.Fatalf("w=%d degrade=%v: the warm grid mapping ran to the end", opts.Workers, degrade)
			}
			want := before
			want.Hits++
			want.GridHits++
			if st := eng.IndexCache(); st != want {
				t.Errorf("w=%d degrade=%v: index cache %+v, want %+v", opts.Workers, degrade, st, want)
			}
		}
		got, err := eng.RunTopK(11.5, 2)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := NewEngine(ds, opts)
		want, _ := fresh.RunTopK(11.5, 2)
		if g, w := stripVolatile(got), stripVolatile(want); !reflect.DeepEqual(g, w) {
			t.Errorf("w=%d after a cancelled warm mapping: %+v, fresh engine %+v", opts.Workers, g, w)
		}
	}
}

// TestWarmGridConcurrent has two queries of one pool answer distinct r
// of one ⌈r⌉ at once on one warm grid, filling its b^adj memo
// together. It runs the stream again, over two ⌈r⌉, under
// a budget that holds one grid: each publish drops the grid the other
// query may be verifying on. Every answer, work counters included,
// equals a fresh engine's. Run under -race.
func TestWarmGridConcurrent(t *testing.T) {
	ds := testDatasets(t)["neuron"]
	var specs []spec
	for _, ceil := range []float64{5, 6} {
		for i, d := range []float64{0, 0.2, 0.5, 0.7, 0.9} {
			specs = append(specs, spec{R: ceil - d, K: 1 + i%4})
		}
	}
	want := make([]*comparableResult, len(specs))
	for i, sp := range specs {
		fresh, _ := NewEngine(ds, Options{})
		res, err := fresh.RunTopK(sp.R, sp.K)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = stripVolatile(res)
	}
	// One grid of the larger ⌈r⌉, its memo filled by the whole stream.
	probe := newWarmEngine(t, ds, Options{})
	for _, sp := range specs[len(specs)/2:] {
		probe.RunTopK(sp.R, sp.K)
	}
	oneGrid := probe.IndexCache().GridBytes * 3 / 2
	for _, c := range []struct {
		budget int
		specs  []spec
	}{{1 << 30, specs[:len(specs)/2]}, {oneGrid, specs}} {
		p, err := NewPool(ds, Options{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		withoutMemo(p.eng.Load()).ub.budget = c.budget
		got := make([][]*comparableResult, 2)
		var start, wg sync.WaitGroup
		start.Add(1)
		for w := range got {
			e, err := p.Acquire(context.Background(), -1)
			if err != nil {
				t.Fatal(err)
			}
			got[w] = make([]*comparableResult, len(c.specs))
			wg.Add(1)
			go func(e *Engine, w int) {
				defer wg.Done()
				defer p.Release()
				start.Wait()
				// The two walk the stream from opposite ends.
				for n := range c.specs {
					i := n
					if w == 1 {
						i = len(c.specs) - 1 - n
					}
					if res, err := e.RunTopK(c.specs[i].R, c.specs[i].K); err == nil {
						got[w][i] = stripVolatile(res)
					}
				}
			}(e, w)
		}
		start.Done()
		wg.Wait()
		for w := range got {
			for i, sp := range c.specs {
				if !reflect.DeepEqual(got[w][i], want[i]) {
					t.Errorf("budget %d worker %d r=%g k=%d: %+v, fresh engine %+v", c.budget, w, sp.R, sp.K, got[w][i], want[i])
				}
			}
		}
		st := p.IndexCache()
		if st.Hits+st.Misses != uint64(2*len(c.specs)) || st.GridBytes > c.budget || st.GridHits == 0 {
			t.Errorf("budget %d: index cache %+v, want a lookup per query, grid hits, and grids within the budget", c.budget, st)
		}
		if c.budget == oneGrid && (st.Grids > 1 || st.GridHits == st.Hits) {
			t.Errorf("budget %d: index cache %+v, want one grid at most and hits that found none", c.budget, st)
		}
	}
}

// TestWarmGridsFitNeuron2 pins the warm-grid budget on the dataset of
// the serve_solo_neuron2 workload, Neuron-2 at 360 × 300: its stream,
// r over [5, 8] and k cycling 1..5, keeps all three ⌈r⌉ = 6, 7 and 8
// grids warm within 40 bytes a point, b^adj memos and neighbour tables
// counted, so every query after the first of its ⌈r⌉ maps only its
// small grid. The stream's first query, r = 5, is its only one of
// ⌈r⌉ = 5.
func TestWarmGridsFitNeuron2(t *testing.T) {
	if testing.Short() {
		t.Skip("generates Neuron-2 at 360 × 300 and runs 40 queries")
	}
	c := data.DefaultNeuron2()
	c.N, c.M = 360, 300
	eng, err := NewEngine(data.GenNeuron(c), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const queries = 40
	for i := 0; i < queries; i++ {
		_, u := math.Modf(float64(i) * 0.6180339887498949)
		if _, err := eng.RunTopK(5+3*u, 1+i%5); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.IndexCache()
	if st.Misses != 4 || st.Hits != queries-4 || st.GridHits != st.Hits || st.Grids != 3 || st.GridBytes > eng.ub.budget {
		t.Errorf("index cache %+v, want 4 misses, every hit a grid hit, and 3 warm grids within %d bytes", st, eng.ub.budget)
	}
}
