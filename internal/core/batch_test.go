package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mio/internal/baseline"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/fault"
)

// comparableResult is the parity surface between the solo and group
// paths: everything except wall-clock durations and the index byte
// sizes, which legitimately differ when structures are shared.
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

// groupParityOptions are the engine configurations the parity suite
// sweeps: serial, four workers, and every LB/UB strategy at two
// (ubCacheStrategies), each with labels off and on.
func groupParityOptions(withStore func() *labelstore.Store) []Options {
	var opts []Options
	for _, o := range append([]Options{{Workers: 4}}, ubCacheStrategies...) {
		opts = append(opts, o)
		o.Labels = withStore()
		opts = append(opts, o)
	}
	return opts
}

// soloOracle runs one spec through the query-major path on a fresh
// engine whose label store carries the same initial state the group
// engine started with (warm rebuilds it via the warm closure).
func soloOracle(t *testing.T, ds *data.Dataset, opts Options, warm func(Options) Options, sp GroupSpec) (*Result, error) {
	t.Helper()
	eng, err := NewEngine(ds, warm(opts))
	if err != nil {
		t.Fatalf("solo engine: %v", err)
	}
	ctx := sp.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	return eng.RunTopKContext(ctx, sp.R, sp.K, sp.Degrade)
}

// TestRunGroupParityExact is the core parity theorem: a group of
// live queries sharing ⌈r⌉ returns, member for member, results
// bitwise-identical (scores, counters, everything but durations and
// byte sizes) to the query-major path.
func TestRunGroupParityExact(t *testing.T) {
	for name, ds := range testDatasets(t) {
		rs := rValues(name)
		base := rs[1]
		ceil := math.Ceil(base)
		// Distinct exact thresholds sharing one ⌈r⌉, plus duplicates
		// to exercise plan sharing.
		specs := []GroupSpec{
			{R: ceil, K: 1},
			{R: ceil - 0.3, K: 3},
			{R: ceil - 0.7, K: 1},
			{R: ceil, K: 1},
			{R: ceil - 0.3, K: 5},
		}
		for oi, opts := range groupParityOptions(labelstore.NewStore) {
			eng, err := NewEngine(ds, opts)
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", name, err)
			}
			outs, rep := eng.RunGroup(context.Background(), specs)
			if rep.Members != len(specs) {
				t.Fatalf("%s opts %d: report members %d, want %d", name, oi, rep.Members, len(specs))
			}
			if rep.RVariants != 3 || rep.Plans != 4 {
				t.Errorf("%s opts %d: report %+v, want 3 r-variants and 4 plans", name, oi, rep)
			}
			warm := func(o Options) Options {
				if o.Labels != nil {
					o.Labels = labelstore.NewStore()
				}
				return o
			}
			for i, sp := range specs {
				if outs[i].Err != nil {
					t.Fatalf("%s opts %d member %d: %v", name, oi, i, outs[i].Err)
				}
				want, err := soloOracle(t, ds, opts, warm, sp)
				if err != nil {
					t.Fatalf("%s opts %d member %d solo: %v", name, oi, i, err)
				}
				if got, exp := stripVolatile(outs[i].Result), stripVolatile(want); !reflect.DeepEqual(got, exp) {
					t.Errorf("%s opts %d member %d (r=%g k=%d): group %+v != solo %+v",
						name, oi, i, sp.R, sp.K, got, exp)
				}
			}
			// Members with identical (r, k) share one Result pointer —
			// the in-group coalescing contract.
			if outs[0].Result != outs[3].Result {
				t.Errorf("%s opts %d: identical (r,k) members did not share a Result", name, oi)
			}
		}
	}
}

// TestRunGroupParityWarmLabels repeats the parity check with a label
// store pre-warmed by an identical query on both sides, so the
// WITH-LABEL variants of every phase run in group mode.
func TestRunGroupParityWarmLabels(t *testing.T) {
	for name, ds := range testDatasets(t) {
		base := rValues(name)[1]
		ceil := math.Ceil(base)
		warmSpec := GroupSpec{R: ceil - 0.3, K: 2}
		mkWarmStore := func() *labelstore.Store {
			st := labelstore.NewStore()
			eng, err := NewEngine(ds, Options{Labels: st})
			if err != nil {
				t.Fatalf("%s: warm engine: %v", name, err)
			}
			if _, err := eng.RunTopK(warmSpec.R, warmSpec.K); err != nil {
				t.Fatalf("%s: warm run: %v", name, err)
			}
			if !st.Has(int(ceil)) {
				t.Fatalf("%s: warm run did not publish labels for ⌈r⌉=%d", name, int(ceil))
			}
			return st
		}
		specs := []GroupSpec{
			{R: ceil, K: 2},
			{R: ceil - 0.5, K: 1},
			{R: ceil - 0.3, K: 4},
		}
		for _, opts := range groupParityOptions(mkWarmStore) {
			if opts.Labels == nil {
				continue
			}
			at := fmt.Sprintf("w=%d %v %v", opts.Workers, opts.LB, opts.UB)
			eng, err := NewEngine(ds, opts)
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", name, err)
			}
			outs, _ := eng.RunGroup(context.Background(), specs)
			warm := func(o Options) Options {
				o.Labels = mkWarmStore()
				return o
			}
			for i, sp := range specs {
				if outs[i].Err != nil {
					t.Fatalf("%s %s member %d: %v", name, at, i, outs[i].Err)
				}
				if !outs[i].Result.Stats.UsedLabels {
					t.Fatalf("%s %s member %d: group run did not use warm labels", name, at, i)
				}
				want, err := soloOracle(t, ds, opts, warm, sp)
				if err != nil {
					t.Fatalf("%s %s member %d solo: %v", name, at, i, err)
				}
				if got, exp := stripVolatile(outs[i].Result), stripVolatile(want); !reflect.DeepEqual(got, exp) {
					t.Errorf("%s %s member %d (r=%g k=%d): group %+v != solo %+v",
						name, at, i, sp.R, sp.K, got, exp)
				}
			}
		}
	}
}

// TestRunGroupParityRandomised fuzzes the grouping algebra: random
// spec sets within one ⌈r⌉, random options, always equal to the solo
// oracle.
func TestRunGroupParityRandomised(t *testing.T) {
	ds := data.GenPowerLaw(data.PowerLawConfig{
		N: 220, M: 6, Alpha: 1.5, Clusters: 25, FieldSize: 6000, HubStd: 6, Seed: 99,
	})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		ceil := float64(4 + rng.Intn(12))
		nspecs := 1 + rng.Intn(8)
		specs := make([]GroupSpec, nspecs)
		for i := range specs {
			specs[i] = GroupSpec{
				R: ceil - rng.Float64()*0.9,
				K: 1 + rng.Intn(6),
			}
		}
		opts := Options{}
		if rng.Intn(2) == 1 {
			opts.Workers = 2 + rng.Intn(3)
		}
		if rng.Intn(2) == 1 {
			opts.Labels = labelstore.NewStore()
		}
		eng, err := NewEngine(ds, opts)
		if err != nil {
			t.Fatalf("trial %d: NewEngine: %v", trial, err)
		}
		outs, _ := eng.RunGroup(context.Background(), specs)
		warm := func(o Options) Options {
			if o.Labels != nil {
				o.Labels = labelstore.NewStore()
			}
			return o
		}
		for i, sp := range specs {
			if outs[i].Err != nil {
				t.Fatalf("trial %d member %d: %v", trial, i, outs[i].Err)
			}
			want, err := soloOracle(t, ds, opts, warm, sp)
			if err != nil {
				t.Fatalf("trial %d member %d solo: %v", trial, i, err)
			}
			if got, exp := stripVolatile(outs[i].Result), stripVolatile(want); !reflect.DeepEqual(got, exp) {
				t.Errorf("trial %d member %d (r=%g k=%d): group %+v != solo %+v",
					trial, i, sp.R, sp.K, got, exp)
			}
		}
	}
}

// TestRunGroupBestMatchesOracle cross-checks the group path against
// the O(n²m²) nested-loop oracle directly, not just against the solo
// engine.
func TestRunGroupBestMatchesOracle(t *testing.T) {
	for name, ds := range testDatasets(t) {
		r := rValues(name)[0]
		ceil := math.Ceil(r)
		specs := []GroupSpec{{R: ceil, K: 1}, {R: ceil - 0.4, K: 1}}
		eng, _ := NewEngine(ds, Options{})
		outs, _ := eng.RunGroup(context.Background(), specs)
		for i, sp := range specs {
			if outs[i].Err != nil {
				t.Fatalf("%s member %d: %v", name, i, outs[i].Err)
			}
			oracle := baseline.NLScores(ds, sp.R)
			best := 0
			for _, s := range oracle {
				if s > best {
					best = s
				}
			}
			if got := outs[i].Result.Best.Score; got != best {
				t.Errorf("%s member %d r=%g: best %d, oracle %d", name, i, sp.R, got, best)
			}
		}
	}
}

// countdownCtx reports expiry after a fixed number of Err() polls —
// a deterministic stand-in for a deadline that fires mid-group.
type countdownCtx struct {
	context.Context
	polls atomic.Int64
	limit int64
}

func newCountdownCtx(limit int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), limit: limit}
}

func (c *countdownCtx) Err() error {
	if c.polls.Add(1) > c.limit {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *countdownCtx) expired() bool { return c.polls.Load() > c.limit }

func TestRunGroupMemberDetachment(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 150, M: 8, FieldSize: 500, Spread: 12, Seed: 14})
	eng, _ := NewEngine(ds, Options{})

	preCancelled, cancel := context.WithCancel(context.Background())
	cancel()
	midRun := newCountdownCtx(3)
	midRunDegrade := newCountdownCtx(3)

	specs := []GroupSpec{
		{R: 10, K: 2},                                     // healthy
		{R: 10, K: 2, Ctx: preCancelled},                  // dead on arrival
		{R: 9.5, K: 1, Ctx: midRun},                       // detaches mid-group
		{R: 9.5, K: 3, Ctx: midRunDegrade, Degrade: true}, // degrades mid-group
		{R: 3, K: 1},                                      // wrong ⌈r⌉
		{R: -1, K: 1},                                     // invalid r
		{R: 10, K: 0},                                     // invalid k
	}
	outs, _ := eng.RunGroup(context.Background(), specs)

	// The healthy member is untouched by its neighbours' failures:
	// exact parity with a solo run.
	want, err := eng.RunTopKContext(context.Background(), 10, 2, false)
	if err != nil {
		t.Fatalf("solo: %v", err)
	}
	if outs[0].Err != nil {
		t.Fatalf("healthy member: %v", outs[0].Err)
	}
	if got, exp := stripVolatile(outs[0].Result), stripVolatile(want); !reflect.DeepEqual(got, exp) {
		t.Errorf("healthy member diverged: group %+v != solo %+v", got, exp)
	}

	// Dead on arrival: same ctx.Err() the solo path returns before any
	// bound exists.
	if !errors.Is(outs[1].Err, context.Canceled) {
		t.Errorf("pre-cancelled member: got (%v, %v), want context.Canceled", outs[1].Result, outs[1].Err)
	}

	// Mid-run detachment without Degrade: a context error, never a
	// partial result passed off as exact.
	if !midRun.expired() {
		t.Fatalf("countdown ctx never expired; test needs a later trigger")
	}
	if outs[2].Err == nil {
		// The member may still have completed before the poll noticed —
		// then it must be the exact answer.
		soloR, err := eng.RunTopKContext(context.Background(), 9.5, 1, false)
		if err != nil {
			t.Fatalf("solo r=9.5: %v", err)
		}
		if !reflect.DeepEqual(stripVolatile(outs[2].Result), stripVolatile(soloR)) {
			t.Errorf("detached member returned a non-exact, non-error result: %+v", outs[2].Result)
		}
	} else if !errors.Is(outs[2].Err, context.DeadlineExceeded) {
		t.Errorf("detached member: err %v, want DeadlineExceeded", outs[2].Err)
	}

	// Mid-run detachment with Degrade: a sound degraded answer (or the
	// exact one if the group finished first).
	if outs[3].Err != nil {
		if !errors.Is(outs[3].Err, context.DeadlineExceeded) {
			t.Errorf("degraded member: err %v", outs[3].Err)
		}
	} else if outs[3].Result.Degraded {
		oracle := baseline.NLScores(ds, 9.5)
		iv := outs[3].Result.Interval
		if iv == nil {
			t.Fatalf("degraded result without interval")
		}
		exact := oracle[outs[3].Result.Best.Obj]
		if exact < iv.LB || exact > iv.UB {
			t.Errorf("degraded interval unsound: exact %d outside [%d, %d]", exact, iv.LB, iv.UB)
		}
		if outs[3].Result.Best.Score != iv.LB {
			t.Errorf("degraded Best.Score %d != Interval.LB %d", outs[3].Result.Best.Score, iv.LB)
		}
	}

	if outs[4].Err == nil || outs[5].Err == nil || outs[6].Err == nil {
		t.Errorf("invalid members accepted: %v / %v / %v", outs[4].Err, outs[5].Err, outs[6].Err)
	}
}

// TestRunGroupEpochContext bounds the whole group: when the epoch
// context is already expired, every live member gets a context error
// (or a certified degraded answer when it opted in).
func TestRunGroupEpochContext(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 120, M: 8, FieldSize: 500, Spread: 12, Seed: 3})
	eng, _ := NewEngine(ds, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, _ := eng.RunGroup(ctx, []GroupSpec{{R: 8, K: 1}, {R: 8, K: 2, Degrade: true}})
	if !errors.Is(outs[0].Err, context.Canceled) {
		t.Errorf("member 0: got (%v, %v), want Canceled", outs[0].Result, outs[0].Err)
	}
	// Degrade member: the expired epoch leaves no completed lower
	// bounding, so no sound degraded answer exists either.
	if !errors.Is(outs[1].Err, context.Canceled) {
		t.Errorf("member 1: got (%v, %v), want Canceled", outs[1].Result, outs[1].Err)
	}
}

// TestRunGroupFaultPoints drives each batch-phase fault point and
// checks the blast radius: group-wide points fail every member,
// plan-scoped points fail only the plan's members.
func TestRunGroupFaultPoints(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 120, M: 8, FieldSize: 500, Spread: 12, Seed: 5})
	specs := []GroupSpec{{R: 8, K: 1}, {R: 7.5, K: 2}}

	for _, point := range []string{fault.PointGroupBuild, fault.PointGridMapping, fault.PointUpperBounding} {
		reg := fault.New(1)
		reg.Arm(fault.Rule{Point: point, Kind: fault.KindError, P: 1})
		eng, _ := NewEngine(ds, Options{Faults: reg})
		outs, _ := eng.RunGroup(context.Background(), specs)
		for i := range outs {
			if !errors.Is(outs[i].Err, fault.ErrInjected) {
				t.Errorf("%s member %d: got (%v, %v), want injected error", point, i, outs[i].Result, outs[i].Err)
			}
		}
	}

	// Lower bounding fires once per plan, also where a plan takes the
	// previous same-r plan's τ^low over: with the rule held back for one
	// draw, only the second plan's members fail and the first survives
	// with an exact result — the plan-scoped blast radius.
	reg := fault.New(1)
	reg.Arm(fault.Rule{Point: fault.PointLowerBounding, Kind: fault.KindError, P: 1, After: 1})
	eng, _ := NewEngine(ds, Options{Faults: reg})
	outs, _ := eng.RunGroup(context.Background(), specs)
	failed, ok := 0, 0
	for i := range outs {
		if errors.Is(outs[i].Err, fault.ErrInjected) {
			failed++
		} else if outs[i].Err == nil && outs[i].Result != nil {
			ok++
		}
	}
	if failed == 0 {
		t.Errorf("lower-bounding fault fired for no member: %+v", outs)
	}
	if failed == len(outs) {
		t.Errorf("lower-bounding fault took down the whole group; want plan-scoped blast radius")
	}
	if failed+ok != len(outs) {
		t.Errorf("outcomes neither failed nor exact: %+v", outs)
	}
}

func TestRunGroupEmptyAndSingle(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 100, M: 8, FieldSize: 500, Spread: 12, Seed: 8})
	eng, _ := NewEngine(ds, Options{})
	outs, rep := eng.RunGroup(context.Background(), nil)
	if len(outs) != 0 || rep.Members != 0 {
		t.Fatalf("empty group: %v %+v", outs, rep)
	}
	// A single-member group is the degenerate case and must equal the
	// solo path exactly.
	outs, rep = eng.RunGroup(context.Background(), []GroupSpec{{R: 9, K: 4}})
	if outs[0].Err != nil {
		t.Fatalf("single: %v", outs[0].Err)
	}
	want, _ := eng.RunTopK(9, 4)
	if !reflect.DeepEqual(stripVolatile(outs[0].Result), stripVolatile(want)) {
		t.Errorf("single-member group != solo: %+v vs %+v", stripVolatile(outs[0].Result), stripVolatile(want))
	}
	if rep.Plans != 1 || rep.RVariants != 1 {
		t.Errorf("single-member report: %+v", rep)
	}
}

// firedCtx is a member context that expires once the registry has
// fired point: a client hanging up while its plan runs that phase,
// without any timing race.
type firedCtx struct {
	context.Context
	reg   *fault.Registry
	point string
}

func (c firedCtx) Err() error {
	if c.reg.Fired(c.point) > 0 {
		return context.Canceled
	}
	return nil
}

// TestRunGroupFirstPlanDetachesInUpperBounding detaches the first plan's
// only member as its upper-bounding pass starts. A serial pass stops on
// its first poll, incomplete, so the next plan must compute what the
// shared entry lacks; a parallel pass completes and fills it. Either
// way the second plan's Result equals the solo one, AdjComputed
// included, and the group, not having run every plan to completion,
// publishes no labels.
func TestRunGroupFirstPlanDetachesInUpperBounding(t *testing.T) {
	for name, ds := range testDatasets(t) {
		ceil := math.Ceil(rValues(name)[1])
		for _, base := range []Options{{}, {Workers: 2}} {
			for _, store := range []*labelstore.Store{nil, labelstore.NewStore()} {
				at := fmt.Sprintf("%s w=%d labels=%v", name, base.Workers, store != nil)
				reg := fault.New(1)
				reg.Arm(fault.Rule{Point: fault.PointUpperBounding, Kind: fault.KindLatency, P: 1, Delay: time.Millisecond})
				opts := base
				opts.Labels, opts.Faults = store, reg
				eng, err := NewEngine(ds, opts)
				if err != nil {
					t.Fatal(err)
				}
				ctx := firedCtx{Context: context.Background(), reg: reg, point: fault.PointUpperBounding}
				specs := []GroupSpec{{R: ceil - 0.5, K: 1, Ctx: ctx}, {R: ceil, K: 2}}
				outs, _ := eng.RunGroup(context.Background(), specs)
				if !errors.Is(outs[0].Err, context.Canceled) {
					t.Errorf("%s: detached member got (%v, %v), want context.Canceled", at, outs[0].Result, outs[0].Err)
				}
				if outs[1].Err != nil {
					t.Fatalf("%s: second plan: %v", at, outs[1].Err)
				}
				base.Labels = nil
				if store != nil {
					base.Labels = labelstore.NewStore()
				}
				solo, _ := NewEngine(ds, base)
				want, err := solo.RunTopK(specs[1].R, specs[1].K)
				if err != nil {
					t.Fatal(err)
				}
				if got, exp := stripVolatile(outs[1].Result), stripVolatile(want); !reflect.DeepEqual(got, exp) {
					t.Errorf("%s: second plan %+v != solo %+v", at, got, exp)
				}
				if store != nil && store.Has(int(ceil)) {
					t.Errorf("%s: labels published by a group whose first plan detached", at)
				}
			}
		}
	}
}
