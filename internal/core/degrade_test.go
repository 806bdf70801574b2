package core

import (
	"context"
	"testing"
)

// checkStatsSane asserts the PhaseStats of a (possibly interrupted)
// run are internally consistent: no negative durations or counters, no
// phase recorded without its predecessors having been timed.
func checkStatsSane(t *testing.T, st PhaseStats, n int) {
	t.Helper()
	if st.LabelInput < 0 || st.GridMapping < 0 || st.LowerBounding < 0 ||
		st.UpperBounding < 0 || st.Verification < 0 {
		t.Fatalf("negative phase duration: %+v", st)
	}
	if st.Total() < st.Verification {
		t.Fatalf("Total() %v < Verification %v: a phase was double-counted", st.Total(), st.Verification)
	}
	if st.Candidates < 0 || st.Candidates > n {
		t.Fatalf("Candidates = %d with n = %d", st.Candidates, n)
	}
	if st.Verified < 0 || st.Verified > st.Candidates {
		t.Fatalf("Verified = %d > Candidates = %d", st.Verified, st.Candidates)
	}
	if st.DistanceComps < 0 || st.AdjComputed < 0 {
		t.Fatalf("negative work counters: %+v", st)
	}
}

// TestDegradedIntervalSweep runs the degraded entry point under every
// poll budget from "dies in grid mapping" to "completes untouched" and
// checks the contract at each: either a plain context.Canceled, or a
// degraded answer whose interval contains both the returned object's
// true score and the optimum, or the exact reference answer.
func TestDegradedIntervalSweep(t *testing.T) {
	const r = 8
	ds := denseUniform(900, 6)
	e, err := NewEngine(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.Run(r)
	if err != nil {
		t.Fatal(err)
	}

	var sawErr, sawDegraded, sawExact bool
	// 1..120 walks the trip point through grid mapping, the bounding
	// phases and early verification; the huge budget never trips, so the
	// degraded entry point must return the exact answer.
	budgets := make([]int64, 0, 121)
	for b := int64(1); b <= 120; b++ {
		budgets = append(budgets, b)
	}
	budgets = append(budgets, 1<<30)
	for _, budget := range budgets {
		ctx := newPollCtx(budget)
		res, err := e.RunTopKContext(ctx, r, 1, true)
		switch {
		case err != nil:
			if err != context.Canceled {
				t.Fatalf("budget %d: err = %v, want context.Canceled or nil", budget, err)
			}
			if res != nil {
				t.Fatalf("budget %d: non-nil result alongside error", budget)
			}
			sawErr = true
		case res.Degraded:
			sawDegraded = true
			if res.Interval == nil {
				t.Fatalf("budget %d: degraded result without interval", budget)
			}
			lb, ub := res.Interval.LB, res.Interval.UB
			if lb > ub || lb < 0 || ub > ds.N()-1 {
				t.Fatalf("budget %d: malformed interval [%d, %d]", budget, lb, ub)
			}
			if res.Best.Score != lb {
				t.Fatalf("budget %d: Best.Score %d != Interval.LB %d", budget, res.Best.Score, lb)
			}
			if len(res.TopK) != 1 || res.TopK[0] != res.Best {
				t.Fatalf("budget %d: degraded TopK %v inconsistent with Best %v", budget, res.TopK, res.Best)
			}
			set, err := e.InteractingSet(context.Background(), r, res.Best.Obj)
			if err != nil {
				t.Fatal(err)
			}
			if truth := len(set); truth < lb || truth > ub {
				t.Fatalf("budget %d: object %d true score %d outside certified interval [%d, %d]",
					budget, res.Best.Obj, truth, lb, ub)
			}
			// The degraded answer can never beat the true optimum, and
			// UB bounds it.
			if lb > ref.Best.Score || ref.Best.Score > ub {
				t.Fatalf("budget %d: interval [%d, %d] excludes the true optimum %d", budget, lb, ub, ref.Best.Score)
			}
			checkStatsSane(t, res.Stats, ds.N())
		default:
			sawExact = true
			if res.Best != ref.Best {
				t.Fatalf("budget %d: completed run returned %+v, reference %+v", budget, res.Best, ref.Best)
			}
			if res.Interval != nil {
				t.Fatalf("budget %d: exact result carries an interval", budget)
			}
			checkStatsSane(t, res.Stats, ds.N())
		}
	}
	if !sawErr || !sawDegraded || !sawExact {
		t.Fatalf("sweep did not exercise all outcomes: err=%v degraded=%v exact=%v",
			sawErr, sawDegraded, sawExact)
	}
}

// TestDegradedParallelWorkers repeats the interval check with the §IV
// parallel phases, whose completion flags follow a different path
// (parallel passes never break mid-phase).
func TestDegradedParallelWorkers(t *testing.T) {
	const r = 8
	ds := denseUniform(600, 6)
	e, err := NewEngine(ds, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	sawDegraded := false
	for budget := int64(1); budget <= 150; budget += 3 {
		ctx := newPollCtx(budget)
		res, err := e.RunTopKContext(ctx, r, 1, true)
		if err != nil {
			if err != context.Canceled {
				t.Fatalf("budget %d: err = %v", budget, err)
			}
			continue
		}
		if !res.Degraded {
			if res.Best != ref.Best {
				t.Fatalf("budget %d: completed run returned %+v, reference %+v", budget, res.Best, ref.Best)
			}
			continue
		}
		sawDegraded = true
		if len(res.TopK) != 1 || res.TopK[0] != res.Best || res.Best.Score != res.Interval.LB {
			t.Fatalf("budget %d: degraded TopK %v, Best %v, interval %+v", budget, res.TopK, res.Best, *res.Interval)
		}
		set, err := e.InteractingSet(context.Background(), r, res.Best.Obj)
		if err != nil {
			t.Fatal(err)
		}
		if truth := len(set); truth < res.Interval.LB || truth > res.Interval.UB {
			t.Fatalf("budget %d: true score %d outside [%d, %d]",
				budget, truth, res.Interval.LB, res.Interval.UB)
		}
		if ref.Best.Score > res.Interval.UB {
			t.Fatalf("budget %d: optimum %d above UB %d", budget, ref.Best.Score, res.Interval.UB)
		}
	}
	if !sawDegraded {
		t.Skip("no budget produced a degraded parallel answer; poll cadence changed")
	}
}

// TestDegradedOnlyWhenVerificationUnfinished trips the context at each
// of a full run's last polls: a query degrades, or with degrade unset
// fails, only when it left a candidate unverified. A deadline that
// lands after the last exact score must not discard the finished
// answer. Every run is on a fresh engine, so it polls as the reference
// did; the warmed rows first run one query at another r, whose
// recorded scores tighten the bounds the certificate is built from.
func TestDegradedOnlyWhenVerificationUnfinished(t *testing.T) {
	const r = 4
	ds := denseUniform(900, 6)
	for _, warmR := range []float64{0, 3.5, 4.5} {
		engine := func() *Engine {
			e, err := NewEngine(ds, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if warmR != 0 {
				if _, err := e.RunTopK(warmR, 1); err != nil {
					t.Fatal(err)
				}
			}
			return e
		}
		count := newPollCtx(1 << 62)
		ref, err := engine().RunTopKContext(count, r, 1, true)
		if err != nil || ref.Degraded {
			t.Fatalf("warm r %v: uncancelled run: (%+v, %v)", warmR, ref, err)
		}
		polls := count.polls.Load()
		// The window begins inside verification: a cancel before
		// the bounds exist has no certificate to give.
		count = newPollCtx(1 << 62)
		if _, err := engine().Bound(count, r, 1, nil); err != nil {
			t.Fatal(err)
		}
		sawDegraded := false
		for budget := max(polls-40, count.polls.Load()+1); budget <= polls+1; budget++ {
			res, err := engine().RunTopKContext(newPollCtx(budget), r, 1, true)
			if err != nil {
				t.Fatalf("warm r %v, budget %d of %d polls: %v", warmR, budget, polls, err)
			}
			exact := !res.Degraded
			if exact && res.Best != ref.Best {
				t.Fatalf("warm r %v, budget %d: exact answer %+v, reference %+v", warmR, budget, res.Best, ref.Best)
			}
			if !exact {
				sawDegraded = true
				if res.Stats.Verified >= ref.Stats.Verified {
					t.Fatalf("warm r %v, budget %d of %d polls: degraded after verifying all %d candidates, interval %+v",
						warmR, budget, polls, res.Stats.Verified, *res.Interval)
				}
				if iv := res.Interval; ref.Best.Score < iv.LB || ref.Best.Score > iv.UB {
					t.Fatalf("warm r %v, budget %d: optimum %d outside [%d, %d]", warmR, budget, ref.Best.Score, iv.LB, iv.UB)
				}
			}
			res, err = engine().RunTopKContext(newPollCtx(budget), r, 1, false)
			if exact != (err == nil) {
				t.Fatalf("warm r %v, budget %d: degrade unset returned (%v, %v), degrade set exact=%v", warmR, budget, res, err, exact)
			}
		}
		if !sawDegraded {
			t.Fatalf("warm r %v: no budget stopped verification; the sweep window misses it", warmR)
		}
	}
}

// TestDegradedRequiresOptIn checks that the plain context entry point
// never degrades: the same budgets that produce degraded answers above
// must surface context.Canceled through RunTopKContext.
func TestDegradedRequiresOptIn(t *testing.T) {
	ds := denseUniform(900, 6)
	e, err := NewEngine(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for budget := int64(1); budget <= 120; budget += 7 {
		ctx := newPollCtx(budget)
		res, err := e.RunTopKContext(ctx, 8, 1, false)
		if err == nil {
			continue // completed before tripping; fine
		}
		if err != context.Canceled || res != nil {
			t.Fatalf("budget %d: (%v, %v), want (nil, context.Canceled)", budget, res, err)
		}
	}
}

// TestCancelDoesNotPoisonEngine interleaves cancelled, degraded and
// full runs on one engine and requires every completed run to agree
// with the reference: an interrupted query must leave no state behind
// that changes later answers.
func TestCancelDoesNotPoisonEngine(t *testing.T) {
	const r = 8
	ds := denseUniform(900, 6)
	e, err := NewEngine(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, 2, 5, 10, 20, 40, 80} {
		if _, err := e.RunTopKContext(newPollCtx(budget), r, 1, false); err != nil && err != context.Canceled {
			t.Fatalf("budget %d: unexpected error %v", budget, err)
		}
		if _, err := e.RunTopKContext(newPollCtx(budget), r, 1, true); err != nil && err != context.Canceled {
			t.Fatalf("budget %d (degraded): unexpected error %v", budget, err)
		}
		res, err := e.Run(r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best != ref.Best {
			t.Fatalf("after interrupted runs with budget %d: Run = %+v, reference %+v",
				budget, res.Best, ref.Best)
		}
	}
}
