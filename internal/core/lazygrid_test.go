package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mio/internal/baseline"
)

// withoutWarmGrids sets e's warm-grid budget to 0: no entry keeps its
// grid, so every hit maps its small grid alone and builds the large
// grid only when it reads it (query.largeGrid).
func withoutWarmGrids(e *Engine) *Engine {
	e.ub.budget = 0
	return e
}

// lazyResult is what a query on an engine without warm grids must
// share with a fresh engine's: the comparable result and the index
// footprint, which the entry gives a query that built no large grid.
type lazyResult struct {
	*comparableResult
	LargeGridBytes, IndexBytes int
}

func lazyOf(r *Result) lazyResult {
	return lazyResult{stripVolatile(r), r.Stats.LargeGridBytes, r.Stats.IndexBytes}
}

// TestLazyGridWarmEqualsCold runs ubCacheStream and fillStream on one
// engine with no score memo and no warm grids, on every dataset and
// strategy: every answer and every counter, the index footprint
// included, equals a fresh engine's. Each query builds at most one
// large grid, and each miss one. (Without the memo every query walks a
// candidate; TestLazyGridSkipsBuild has the queries that build none.)
func TestLazyGridWarmEqualsCold(t *testing.T) {
	for name, ds := range testDatasets(t) {
		specs := append(ubCacheStream(name), fillStream(math.Ceil(rValues(name)[1]))...)
		for _, opts := range ubCacheStrategies {
			at := fmt.Sprintf("%s w=%d %v %v", name, opts.Workers, opts.LB, opts.UB)
			e, err := NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm := withoutWarmGrids(withoutMemo(e))
			for _, sp := range specs {
				before := warm.IndexCache()
				got, err := warm.RunTopK(sp.R, sp.K)
				if err != nil {
					t.Fatalf("%s r=%g k=%d: %v", at, sp.R, sp.K, err)
				}
				cold, _ := NewEngine(ds, opts)
				want, _ := cold.RunTopK(sp.R, sp.K)
				if g, w := lazyOf(got), lazyOf(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s r=%g k=%d: lazy %+v %+v, cold %+v %+v", at, sp.R, sp.K, g, g.comparableResult, w, w.comparableResult)
				}
				st := warm.IndexCache()
				if built := int(st.LargeBuilds - before.LargeBuilds); built != got.Stats.LargeBuilds || built > 1 || st.Misses > before.Misses && built != 1 {
					t.Fatalf("%s r=%g k=%d: the query built %d large grids (%+v after %+v)", at, sp.R, sp.K, got.Stats.LargeBuilds, st, before)
				}
			}
			if st := warm.IndexCache(); st.GridHits != 0 || st.Grids != 0 {
				t.Errorf("%s: index cache %+v, want no warm grid", at, st)
			}
		}
	}
}

// TestLazyGridSkipsBuild repeats a query on an engine without warm
// grids: the repeat finds every survivor's τ^upp in its entry and every
// candidate's score in the memo, so it runs no Lemma 2 and no walk, and
// builds no large grid, and Explain says so. So does a Bound at that r.
func TestLazyGridSkipsBuild(t *testing.T) {
	for name, ds := range testDatasets(t) {
		r := rValues(name)[1]
		for _, opts := range []Options{{}, {Workers: 2}} {
			at := fmt.Sprintf("%s w=%d", name, opts.Workers)
			e, _ := NewEngine(ds, opts)
			eng := withoutWarmGrids(e)
			first, err := eng.RunTopK(r, 3)
			if err != nil {
				t.Fatal(err)
			}
			if first.Stats.LargeBuilds != 1 || strings.Contains(first.Explain(ds.N()), "built no large grid") {
				t.Fatalf("%s: the first query built %d large grids:\n%s", at, first.Stats.LargeBuilds, first.Explain(ds.N()))
			}
			again, err := eng.RunTopK(r, 3)
			if err != nil {
				t.Fatal(err)
			}
			if again.Stats.LargeBuilds != 0 || again.Stats.Verified != 0 || !strings.Contains(again.Explain(ds.N()), "built no large grid") {
				t.Errorf("%s: the repeat built %d large grids and walked %d candidates:\n%s", at, again.Stats.LargeBuilds, again.Stats.Verified, again.Explain(ds.N()))
			}
			if !reflect.DeepEqual(again.TopK, first.TopK) || again.Stats.LargeCells != first.Stats.LargeCells || again.Stats.IndexBytes != first.Stats.IndexBytes {
				t.Errorf("%s: repeat %+v, first %+v", at, again, first)
			}
			b, err := eng.Bound(context.Background(), r, 3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st := b.Stats(); st.LargeBuilds != 0 {
				t.Errorf("%s: Bound built %d large grids", at, st.LargeBuilds)
			}
			if st := eng.IndexCache(); st.LargeBuilds != 1 || st.Hits != 2 {
				t.Errorf("%s: index cache %+v, want one build over three lookups", at, st)
			}
		}
	}
}

// cancelAtBuild is a context cancelled from the moment a query of eng
// starts a large-grid build after the first `after`: the build's first
// poll sees it, so the build is cut short.
type cancelAtBuild struct {
	context.Context
	eng   *Engine
	after uint64
}

func (c cancelAtBuild) Done() <-chan struct{} {
	if c.eng.ub.builds.Load() > c.after {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return nil
}

func (c cancelAtBuild) Err() error {
	if c.eng.ub.builds.Load() > c.after {
		return context.Canceled
	}
	return nil
}

// TestLazyGridCancelledBuild cuts a hit's large-grid build short, in
// upper bounding (Lemma 2 for a survivor the entry lacks) or before the
// first walk. The query degrades with an interval that holds the
// oracle's optimum and a Best no better than its oracle score, or
// declines without degrade; it publishes neither the cut grid nor a
// τ^upp value. The next query at that r is exact and keeps the grid it
// builds. The syn dataset has 300 objects, so the build polls.
func TestLazyGridCancelledBuild(t *testing.T) {
	ds := testDatasets(t)["syn"]
	const ceil = 12.0
	inUpper, inVerify := false, false
	for _, opts := range []Options{{}, {Workers: 2}} {
		for _, sp := range fillStream(ceil) {
			oracle := baseline.NLScores(ds, sp.R)
			optimum := baseline.TopKFromScores(oracle, 1)[0].Score
			for _, degrade := range []bool{true, false} {
				at := fmt.Sprintf("w=%d r=%g k=%d degrade=%v", opts.Workers, sp.R, sp.K, degrade)
				e, _ := NewEngine(ds, opts)
				eng := withoutWarmGrids(withoutMemo(e))
				if _, err := eng.RunTopK(ceil, 1); err != nil {
					t.Fatal(err)
				}
				eng.ub.budget = 1 << 30
				before := eng.IndexCache()
				q := newQuery(eng, sp.R, sp.K)
				q.ctx = cancelAtBuild{Context: context.Background(), eng: eng, after: before.LargeBuilds}
				q.degradeOK = degrade
				res, err := q.run()
				st := eng.IndexCache()
				if st.LargeBuilds != before.LargeBuilds+1 {
					t.Fatalf("%s: %d builds after %d, want the one that was cut", at, st.LargeBuilds, before.LargeBuilds)
				}
				if st.Grids != 0 || st.Filled != before.Filled || q.idx.large != nil {
					t.Fatalf("%s: the cut build published: index cache %+v after %+v", at, st, before)
				}
				inUpper = inUpper || !q.ubDone
				inVerify = inVerify || q.ubDone
				if !degrade {
					if err != context.Canceled {
						t.Fatalf("%s: (%+v, %v), want context.Canceled", at, res, err)
					}
					continue
				}
				if err != nil || !res.Degraded {
					t.Fatalf("%s: (%+v, %v), want a degraded answer", at, res, err)
				}
				if iv := res.Interval; optimum < iv.LB || optimum > iv.UB || oracle[res.Best.Obj] < res.Best.Score {
					t.Fatalf("%s: Best %+v (oracle score %d), interval %+v, oracle optimum %d", at, res.Best, oracle[res.Best.Obj], *iv, optimum)
				}
				got, err := eng.RunTopK(sp.R, sp.K)
				if err != nil {
					t.Fatal(err)
				}
				fresh, _ := NewEngine(ds, opts)
				want, _ := fresh.RunTopK(sp.R, sp.K)
				if g, w := lazyOf(got), lazyOf(want); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: after the cut build %+v, fresh engine %+v", at, g.comparableResult, w.comparableResult)
				}
				if st := eng.IndexCache(); got.Stats.LargeBuilds != 1 || st.Grids != 1 {
					t.Fatalf("%s: the next query built %d large grids, index cache %+v, want its grid kept", at, got.Stats.LargeBuilds, st)
				}
			}
		}
	}
	if !inUpper || !inVerify {
		t.Errorf("cut in upper bounding %v, before a walk %v: want both", inUpper, inVerify)
	}
}

// TestLazyGridConcurrent has three goroutines on one Pool without warm
// grids or a memo run a stream over two ⌈r⌉ from different offsets, so
// they race on the entries' lazy builds, their publishes and their
// τ^upp: every answer, counters and footprint included, equals a fresh
// engine's. Run under -race.
func TestLazyGridConcurrent(t *testing.T) {
	ds := testDatasets(t)["neuron"]
	var specs []spec
	for _, ceil := range []float64{5, 6} {
		for i, d := range []float64{0, 0.2, 0.5, 0.7, 0.9} {
			specs = append(specs, spec{R: ceil - d, K: 1 + i%4})
		}
	}
	for _, opts := range []Options{{}, {Workers: 2}} {
		want := make([]lazyResult, len(specs))
		for i, sp := range specs {
			fresh, _ := NewEngine(ds, opts)
			res, err := fresh.RunTopK(sp.R, sp.K)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = lazyOf(res)
		}
		const goroutines = 3
		p, err := NewPool(ds, opts, goroutines)
		if err != nil {
			t.Fatal(err)
		}
		withoutWarmGrids(withoutMemo(p.eng.Load()))
		got := make([][]lazyResult, goroutines)
		var start, wg sync.WaitGroup
		start.Add(1)
		for w := range got {
			e, err := p.Acquire(context.Background(), -1)
			if err != nil {
				t.Fatal(err)
			}
			got[w] = make([]lazyResult, len(specs))
			wg.Add(1)
			go func(e *Engine, w int) {
				defer wg.Done()
				defer p.Release()
				start.Wait()
				for n := range specs {
					i := (n + w*len(specs)/goroutines) % len(specs)
					res, err := e.RunTopK(specs[i].R, specs[i].K)
					if err != nil {
						t.Errorf("worker %d r=%g: %v", w, specs[i].R, err)
						return
					}
					got[w][i] = lazyOf(res)
				}
			}(e, w)
		}
		start.Done()
		wg.Wait()
		for w := range got {
			for i, sp := range specs {
				if !reflect.DeepEqual(got[w][i], want[i]) {
					t.Errorf("w=%d worker %d r=%g k=%d: %+v, fresh engine %+v", opts.Workers, w, sp.R, sp.K, got[w][i].comparableResult, want[i].comparableResult)
				}
			}
		}
		if st := p.IndexCache(); st.Grids != 0 || st.Hits+st.Misses != goroutines*uint64(len(specs)) || st.LargeBuilds > st.Hits+st.Misses {
			t.Errorf("w=%d: index cache %+v", opts.Workers, st)
		}
	}
}
