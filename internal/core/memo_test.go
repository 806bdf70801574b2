package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"mio/internal/core/labelstore"
)

// memoStream is a query stream over the dataset's thresholds that the
// score memo must answer as a cold engine does: r sweeps up past ⌈r⌉
// and back down, repeats exactly, and steps one ulp either way, while k
// runs from 1 to 7.
func memoStream(name string) []spec {
	var rs []float64
	for _, b := range rValues(name) {
		up, down := math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1))
		rs = append(rs, 0.8*b, 0.9*b, b, 1.1*b, 1.03*b, 0.85*b, b, up, b, down, up, 0.9*b)
	}
	specs := make([]spec, len(rs))
	for i, r := range rs {
		specs[i] = spec{R: r, K: 1 + i%7}
	}
	return specs
}

// answerOf is what a warm run must share with a cold one: the answer.
// The warm run's work counters depend on what the engine ran before.
func answerOf(r *Result) *Result {
	return &Result{Best: r.Best, TopK: r.TopK, Degraded: r.Degraded, Interval: r.Interval}
}

// checkWarmRun fails unless warm answers as cold does, with no more
// walks and distance computations: the memo only tightens bounds, so
// the warm run's walks are among the cold run's.
func checkWarmRun(t *testing.T, at string, warm, cold *Result) {
	t.Helper()
	if g, w := answerOf(warm), answerOf(cold); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: warm %+v, cold %+v", at, g, w)
	}
	if warm.Stats.Verified > cold.Stats.Verified || warm.Stats.DistanceComps > cold.Stats.DistanceComps {
		t.Fatalf("%s: warm run verified %d with %d distances, cold run %d with %d", at,
			warm.Stats.Verified, warm.Stats.DistanceComps, cold.Stats.Verified, cold.Stats.DistanceComps)
	}
}

// TestScoreMemoMatchesColdEngine runs memoStream on one warm engine and
// every query of it on a fresh one: serially and at two workers, with a
// label store, and through Bound/Complete with a restrict mask and
// floors. The warm engine must record scores and, once it holds them,
// skip walks.
func TestScoreMemoMatchesColdEngine(t *testing.T) {
	withStore := func(o Options) Options { o.Labels = labelstore.NewStore(); return o }
	for name, ds := range testDatasets(t) {
		for _, opts := range []Options{{Workers: 1}, {Workers: 2}, withStore(Options{})} {
			at := fmt.Sprintf("%s w=%d labels=%v", name, opts.Workers, opts.Labels != nil)
			warm, err := NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			skipped := false
			for _, sp := range memoStream(name) {
				got, err := warm.RunTopK(sp.R, sp.K)
				if err != nil {
					t.Fatalf("%s r=%g k=%d: %v", at, sp.R, sp.K, err)
				}
				if opts.Labels != nil {
					opts.Labels = labelstore.NewStore()
				}
				cold, _ := NewEngine(ds, opts)
				want, err := cold.RunTopK(sp.R, sp.K)
				if err != nil {
					t.Fatalf("%s r=%g k=%d cold: %v", at, sp.R, sp.K, err)
				}
				checkWarmRun(t, fmt.Sprintf("%s r=%v k=%d", at, sp.R, sp.K), got, want)
				skipped = skipped || got.Stats.Verified < want.Stats.Verified
			}
			if st := warm.IndexCache().Memo; st.Steps == 0 || st.Bytes > scoreMemoBytes || !skipped {
				t.Errorf("%s: memo %+v, skipped walks %v; want recorded steps within %d bytes that spare walks", at, st, skipped, scoreMemoBytes)
			}
		}
	}
}

// TestScoreMemoBoundComplete is the split phase on a warm engine with a
// restrict mask, at the query's own threshold and at the highest sound
// floor. The bounds it shows the coordinator stay certified: every
// TopLBs entry scores at least its bound, and MaxUB is at least every
// allowed object's score.
func TestScoreMemoBoundComplete(t *testing.T) {
	bg := context.Background()
	for name, ds := range testDatasets(t) {
		allowed := make([]bool, ds.N())
		for i := range allowed {
			allowed[i] = i%3 != 1
		}
		for _, opts := range []Options{{}, {Workers: 2}} {
			at := fmt.Sprintf("%s w=%d", name, opts.Workers)
			warm, _ := NewEngine(ds, opts)
			for _, sp := range memoStream(name) {
				fresh := func() *Engine { e, _ := NewEngine(ds, opts); return e }
				run := func(e *Engine, floor int) *Result {
					t.Helper()
					bs, err := e.Bound(bg, sp.R, sp.K, allowed)
					if err != nil {
						t.Fatalf("%s r=%v k=%d: %v", at, sp.R, sp.K, err)
					}
					res, err := bs.Complete(bg, floor)
					if err != nil {
						t.Fatalf("%s r=%v k=%d: %v", at, sp.R, sp.K, err)
					}
					return res
				}
				scores, err := fresh().AllScores(bg, sp.R)
				if err != nil {
					t.Fatal(err)
				}
				own := run(fresh(), 0)
				floor := own.TopK[len(own.TopK)-1].Score
				for _, f := range []int{0, floor} {
					bs, err := warm.Bound(bg, sp.R, sp.K, allowed)
					if err != nil {
						t.Fatal(err)
					}
					for _, lb := range bs.TopLBs() {
						if lb.Score > scores[lb.Obj] {
							t.Fatalf("%s r=%v k=%d: TopLBs %+v above the score %d", at, sp.R, sp.K, lb, scores[lb.Obj])
						}
					}
					for i, s := range scores {
						if allowed[i] && s > bs.MaxUB() {
							t.Fatalf("%s r=%v k=%d: MaxUB %d below object %d's score %d", at, sp.R, sp.K, bs.MaxUB(), i, s)
						}
					}
					got, err := bs.Complete(bg, f)
					if err != nil {
						t.Fatal(err)
					}
					want := run(fresh(), f)
					checkWarmRun(t, fmt.Sprintf("%s r=%v k=%d floor=%d", at, sp.R, sp.K, f), got, want)
				}
			}
		}
	}
}

// TestScoreMemoCancelledWalk stops queries on a warm engine in the
// middle of an exact-score walk, each at an r above every r the engine
// has seen, then runs the query again. A walk cut short knows a lower
// bound only: had it been recorded as the score, the rerun would take
// it for the object's score at r.
func TestScoreMemoCancelledWalk(t *testing.T) {
	ds := denseUniform(900, 6)
	bg := context.Background()
	for _, opts := range []Options{{}, {Workers: 2}} {
		warm, err := NewEngine(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		cut := 0
		for n := 0; n < 12; n++ {
			r, k := 7+0.1*float64(n), 1+n%3
			bs, err := warm.Bound(bg, r, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Complete polls once after assembling the candidates and
			// once before each walk; the third poll and those after it
			// fall inside walks that probe more than 256 group points.
			if _, err := bs.Complete(newPollCtx(3+int64(n%3)), 0); err == nil {
				t.Fatalf("w=%d r=%v k=%d: the stopped run answered", opts.Workers, r, k)
			}
			if bs.q.trunc != nil {
				cut++
			}
			got, err := warm.RunTopK(r, k)
			if err != nil {
				t.Fatal(err)
			}
			cold, _ := NewEngine(ds, opts)
			want, _ := cold.RunTopK(r, k)
			checkWarmRun(t, fmt.Sprintf("w=%d r=%v k=%d after a stopped walk", opts.Workers, r, k), got, want)
			// The stopped walk's object need not be in the answer; its
			// score is in AllScores, which takes every closed bracket.
			scores, err := warm.AllScores(bg, r)
			if err != nil {
				t.Fatal(err)
			}
			if wantScores, _ := cold.AllScores(bg, r); !reflect.DeepEqual(scores, wantScores) {
				t.Fatalf("w=%d r=%v: AllScores after a stopped walk differ from a fresh engine's", opts.Workers, r)
			}
		}
		if cut == 0 {
			t.Errorf("w=%d: no stopped run stopped inside a walk", opts.Workers)
		}
	}
}

// TestScoreMemoConcurrent runs every entry point that scores objects on
// one pool from four goroutines at once, each walking the stream from
// another place, and compares every answer with a fresh engine's, with
// and without a label store (a server's engines run with one). Run
// under -race.
func TestScoreMemoConcurrent(t *testing.T) {
	ds := testDatasets(t)["neuron"]
	type op struct {
		kind int // RunTopK, Bound + Complete, InteractingSet, AllScores
		spec
	}
	var ops []op
	for i, sp := range memoStream("neuron") {
		ops = append(ops, op{kind: i % 4, spec: sp})
	}
	bg := context.Background()
	run := func(e *Engine, o op) (any, error) {
		switch o.kind {
		case 0:
			res, err := e.RunTopK(o.R, o.K)
			if err != nil {
				return nil, err
			}
			return answerOf(res), nil
		case 1:
			bs, err := e.Bound(bg, o.R, o.K, nil)
			if err != nil {
				return nil, err
			}
			res, err := bs.Complete(bg, 0)
			if err != nil {
				return nil, err
			}
			return answerOf(res), nil
		case 2:
			return e.InteractingSet(bg, o.R, o.K)
		}
		return e.AllScores(bg, o.R)
	}
	for _, c := range []struct {
		workers int
		labels  bool
	}{{1, false}, {2, false}, {1, true}, {2, true}} {
		workers := c.workers
		opts := func() Options {
			o := Options{Workers: workers}
			if c.labels {
				o.Labels = labelstore.NewStore()
			}
			return o
		}
		want := make([]any, len(ops))
		for i, o := range ops {
			fresh, _ := NewEngine(ds, opts())
			var err error
			if want[i], err = run(fresh, o); err != nil {
				t.Fatal(err)
			}
		}
		p, err := NewPool(ds, opts(), 4)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			e, err := p.Acquire(bg, -1)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(e *Engine, g int) {
				defer wg.Done()
				defer p.Release()
				for n := range ops {
					i := (n + g*len(ops)/4) % len(ops)
					if got, err := run(e, ops[i]); err != nil {
						t.Errorf("w=%d labels=%v op %+v: %v", workers, c.labels, ops[i], err)
					} else if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("w=%d labels=%v op %+v: pooled %+v, fresh engine %+v", workers, c.labels, ops[i], got, want[i])
					}
				}
			}(e, g)
		}
		wg.Wait()
		if st := p.IndexCache().Memo; st.Steps == 0 {
			t.Errorf("w=%d labels=%v: memo %+v, want recorded steps", workers, c.labels, st)
		}
	}
}

// TestScoreMemoBudget records more steps than the memo's budget holds:
// it never holds more, and it answers from what it kept.
func TestScoreMemoBudget(t *testing.T) {
	m := newScoreMemo()
	for i := 0; i < 3*scoreMemoBytes/memoStepBytes; i++ {
		m.record(i%5000, 1+float64(i/5000), i/5000)
		if st := m.stats(); st.Bytes > scoreMemoBytes {
			t.Fatalf("after %d records: %+v, over %d bytes", i+1, st, scoreMemoBytes)
		}
	}
	if st := m.stats(); st.Steps == 0 || st.Objects > 5000 {
		t.Fatalf("memo %+v", st)
	}
	if _, ok := m.exact(0, 1); ok {
		t.Error("the first score survived two resets")
	}
	last := 3*scoreMemoBytes/memoStepBytes - 1
	if tau, ok := m.exact(last%5000, 1+float64(last/5000)); !ok || tau != last/5000 {
		t.Errorf("the last score: (%d, %v), want (%d, true)", tau, ok, last/5000)
	}
}
