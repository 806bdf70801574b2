package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"mio/internal/fault"
)

// This file implements the engine's multi-query entry point used by
// the batch executor (internal/batch): one shared pass over the
// dataset serves a whole group of queries with equal ⌈r⌉.
//
// A group runs each distinct (r, k) — a plan — as an ordinary query,
// bound then complete, on an index the group builds once:
//
//   - Label input and grid mapping run once: the labels and the large
//     grid depend only on ⌈r⌉ (grid.LargeWidth rounds up), and one
//     mapGrids sweep adds one small grid per distinct exact r
//     (grid.SmallWidth divides by √dims). A warm grid in the engine's
//     cache stands in for the large grid's sweep.
//   - A plan with the same exact r as the plan before it takes over
//     that plan's lower-bounding pass (its tauLow).
//   - Every plan reads and fills one upper-bounding entry (ubEntry):
//     the one grid mapping found in the engine's cache, else the one
//     the first plan to reach upper bounding made. The count bounds and
//     τ^upp depend only on the large grid and the labels. A plan
//     computes τ^upp only for its survivors that the entry still
//     lacks.
//   - Members with equal (r, k) share one plan and receive the same
//     *Result.
//
// Per-member results are bitwise-identical to the query-major path —
// including the DistanceComps and AdjComputed counters — because each
// plan is the solo pipeline, skipping only work whose output it is
// handed, and AdjComputed counts the cells a query reads (readSet,
// markRead), which no other query on the shared grid changes.

// GroupSpec describes one member of a batch group. All members of one
// RunGroup call must share ⌈R⌉.
type GroupSpec struct {
	R       float64
	K       int
	Degrade bool // degraded answer instead of ctx.Err() on expiry
	// Ctx is the member's own cancellation; nil means background. A
	// member whose context expires detaches from the group without
	// stalling it.
	Ctx context.Context
}

// GroupOutcome is the per-member answer: exactly one of Result and Err
// is meaningful, mirroring the (Result, error) pair of RunTopKContext.
type GroupOutcome struct {
	Result *Result
	Err    error
}

// GroupReport summarises the sharing a group run achieved.
type GroupReport struct {
	// Members is the group size; Plans counts the distinct (r, k)
	// verification pipelines executed; RVariants the distinct exact
	// thresholds (lower-bounding passes).
	Members   int `json:"members"`
	Plans     int `json:"plans"`
	RVariants int `json:"r_variants"`
}

// RunGroup processes specs as one shared-⌈r⌉ batch group. ctx bounds
// the whole group (the epoch deadline); each spec's own context only
// detaches that member. The returned slice is parallel to specs.
//
// Exact results are bitwise-identical to running each spec through
// RunTopKContext alone, except for wall-clock durations and the index
// byte sizes (shared structures amortise differently). Members whose
// context expires mid-group get the same treatment the solo path gives
// them: ctx.Err(), or a certified degraded answer when Degrade is set
// and their plan's completed phases can certify one.
func (e *Engine) RunGroup(ctx context.Context, specs []GroupSpec) ([]GroupOutcome, GroupReport) {
	g := &groupRun{
		e:     e,
		ctx:   ctx,
		specs: make([]GroupSpec, len(specs)),
		outs:  make([]GroupOutcome, len(specs)),
		done:  make([]bool, len(specs)),
		dead:  make([]bool, len(specs)),
	}
	copy(g.specs, specs)
	g.rep.Members = len(specs)
	ceil := 0
	for i := range g.specs {
		sp := &g.specs[i]
		if err := e.validate(sp.R, sp.K); err != nil {
			g.fail(i, err)
			continue
		}
		sp.K = min(sp.K, e.ds.N())
		if c := int(math.Ceil(sp.R)); ceil == 0 {
			ceil = c
		} else if c != ceil {
			g.fail(i, fmt.Errorf("core: group member ⌈r⌉=%d does not match the group's ⌈r⌉=%d", c, ceil))
		}
	}
	if ceil != 0 {
		g.run(ceil)
	}
	return g.outs, g.rep
}

// plan is one distinct (r, k): the members that share it, and the
// query that answers them once it has run.
type plan struct {
	r       float64
	k       int
	members []int
	q       *query
	res     *Result // the query's answer; nil when it declined
}

// groupRun holds one shared-⌈r⌉ group's members and plans.
type groupRun struct {
	e     *Engine
	ctx   context.Context
	specs []GroupSpec

	// mu guards dead and done. Parallel verification workers poll
	// member liveness concurrently. dead marks a member that no longer
	// waits for work: its context expired, or it has its outcome
	// (done).
	mu   sync.Mutex
	dead []bool
	done []bool

	plans []*plan

	outs []GroupOutcome
	rep  GroupReport
}

// fail delivers a terminal error to member i.
func (g *groupRun) fail(i int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done[i] {
		return
	}
	g.outs[i] = GroupOutcome{Err: err}
	g.done[i], g.dead[i] = true, true
}

func (g *groupRun) failMembers(members []int, err error) {
	for _, i := range members {
		g.fail(i, err)
	}
}

func (g *groupRun) failAll(err error) {
	for i := range g.specs {
		g.fail(i, err) // a no-op for members already answered
	}
}

// alive reports whether member i still waits for work, marking it dead
// once its context has expired. Callers hold mu.
func (g *groupRun) alive(i int) bool {
	if g.dead[i] {
		return false
	}
	if c := g.specs[i].Ctx; c != nil && c.Err() != nil {
		g.dead[i] = true
		return false
	}
	return true
}

// allDead reports whether every listed member has detached. It polls
// contexts only up to the first live member, so a plan's cancellation
// poll — per candidate and every 256 probes — costs one context check
// while the plan has someone to answer.
func (g *groupRun) allDead(members []int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, i := range members {
		if g.alive(i) {
			return false
		}
	}
	return true
}

// aborted reports whether the whole group should stop: the epoch
// context expired, or no member is still waiting for work. It runs
// between plans and as grid mapping's stop.
func (g *groupRun) aborted() bool {
	if g.ctx != nil && g.ctx.Err() != nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.specs {
		if g.alive(i) {
			return false
		}
	}
	return true
}

// ctxErr returns the context error member i has run into — its own
// context's, else the group's — or nil while both are live.
func (g *groupRun) ctxErr(i int) error {
	if c := g.specs[i].Ctx; c != nil && c.Err() != nil {
		return c.Err()
	}
	if g.ctx != nil {
		return g.ctx.Err()
	}
	return nil
}

// errFor returns the context error a detached member should see.
func (g *groupRun) errFor(i int) error {
	if err := g.ctxErr(i); err != nil {
		return err
	}
	return context.Canceled
}

func (g *groupRun) fire(point string) error {
	return g.e.opts.Faults.Fire(point)
}

// run builds the group's index once and runs every plan on it.
func (g *groupRun) run(ceil int) {
	if err := g.fire(fault.PointGroupBuild); err != nil {
		g.failAll(err)
		return
	}
	// A member whose context expired before the group began gets
	// ctx.Err(), as a solo query expiring before lower bounding does.
	for i, sp := range g.specs {
		if sp.Ctx != nil {
			if err := sp.Ctx.Err(); err != nil {
				g.fail(i, err)
			}
		}
	}
	rs := g.setupPlans()
	if len(rs) == 0 {
		return
	}

	// Label input (§III-D): every member shares ⌈r⌉, the label key.
	// Labeling-3 bits are valid at one exact r; a set collected over
	// several records none.
	if err := g.fire(fault.PointLabelInput); err != nil {
		g.failAll(err)
		return
	}
	collectR := 0.0
	if len(rs) == 1 {
		collectR = rs[0]
	}
	labels, newLabels, labelDur := g.e.labelInput(ceil, collectR)

	// Grid mapping: one sweep fills the large grid and one small grid
	// per distinct exact r.
	if err := g.fire(fault.PointGridMapping); err != nil {
		g.failAll(err)
		return
	}
	t0 := time.Now()
	m := g.e.mapGrids(rs, g.e.cacheFor(labels, newLabels, nil), labels, nil, 0, g.aborted)
	gridDur := time.Since(t0)

	var prev *query // the last plan's query that ran
	ub := m.ub
	exact := true
	for _, pl := range g.plans {
		if !m.complete || g.aborted() {
			exact = false
			break
		}
		if g.allDead(pl.members) {
			exact = false
			continue
		}
		q := newQuery(g.e, pl.r, pl.k)
		q.ctx = g.ctx
		q.cancelCheck = func() bool { return g.allDead(pl.members) }
		q.labels, q.newLabels, q.ub = labels, newLabels, ub
		q.stats.LabelInput, q.stats.GridMapping = labelDur, gridDur
		if prev != nil && prev.r == pl.r {
			q.useIndex(prev.idx)
			if prev.lbDone {
				q.tauLow, q.lbDone = prev.tauLow, true
			}
		} else {
			q.useIndex(newBigrid(m.smalls[slices.Index(rs, pl.r)], m.large, m.groups))
		}
		for _, i := range pl.members {
			q.degradeOK = q.degradeOK || g.specs[i].Degrade
		}
		pl.q, prev = q, q

		res, err := q.bound()
		if ub == nil {
			ub = q.ub
		}
		if res == nil && err == nil {
			res, err = q.complete(0)
		}
		if err != nil && !q.cancelled() {
			// An injected fault fails the plan's members only.
			g.failMembers(pl.members, err)
		}
		pl.res = res
		exact = exact && err == nil && !res.Degraded
	}

	// Post-processing: publish collected labels iff every plan ran to
	// completion, so the published set is a deterministic function of
	// (dataset, ⌈r⌉) — the invariant the solo path keeps by not
	// publishing after a cancellation.
	if exact {
		failed := g.e.publishLabels(ceil, newLabels)
		for _, pl := range g.plans {
			pl.res.Stats.LabelPersistFailed = failed
			pl.q.stats.LabelPersistFailed = failed
		}
	}
	for _, pl := range g.plans {
		for _, i := range pl.members {
			g.mu.Lock()
			delivered := g.done[i]
			g.mu.Unlock()
			if !delivered {
				g.outs[i] = g.outcome(i, pl)
			}
		}
	}
}

// setupPlans derives the plans (distinct (r, k)) of the members still
// waiting, in sorted order so the sequence is deterministic, and
// returns the distinct exact r in that order.
func (g *groupRun) setupPlans() []float64 {
	type planKey struct {
		r float64
		k int
	}
	idx := map[planKey]*plan{}
	for i := range g.specs {
		if g.done[i] {
			continue
		}
		sp := &g.specs[i]
		key := planKey{sp.R, sp.K}
		pl := idx[key]
		if pl == nil {
			pl = &plan{r: sp.R, k: sp.K}
			idx[key] = pl
			g.plans = append(g.plans, pl)
		}
		pl.members = append(pl.members, i)
	}
	sort.Slice(g.plans, func(a, b int) bool {
		if g.plans[a].r != g.plans[b].r {
			return g.plans[a].r < g.plans[b].r
		}
		return g.plans[a].k < g.plans[b].k
	})
	var rs []float64
	for _, pl := range g.plans {
		if len(rs) == 0 || rs[len(rs)-1] != pl.r {
			rs = append(rs, pl.r)
		}
	}
	g.rep.RVariants = len(rs)
	g.rep.Plans = len(g.plans)
	return rs
}

// outcome is member i's answer from its plan: the exact result while
// the member is live, else what the plan's query certifies for a
// member that opted into degradation (query.degraded), else the
// member's context error.
func (g *groupRun) outcome(i int, pl *plan) GroupOutcome {
	res := pl.res
	switch {
	case res == nil:
	case !res.Degraded && g.ctxErr(i) == nil:
		return GroupOutcome{Result: res}
	case !g.specs[i].Degrade:
	case res.Degraded:
		return GroupOutcome{Result: res}
	default:
		// The plan finished after the member detached: the exact top
		// certifies a point interval.
		if d, err := pl.q.degraded(res.TopK); err == nil {
			return GroupOutcome{Result: d}
		}
	}
	return GroupOutcome{Err: g.errFor(i)}
}
