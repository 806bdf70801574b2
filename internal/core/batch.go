package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"mio/internal/core/labelstore"
	"mio/internal/fault"
	"mio/internal/grid"
)

// This file implements the engine's multi-query entry point used by
// the batch executor (internal/batch): one shared pass over the
// dataset serves a whole group of queries with equal ⌈r⌉.
//
// The grouping algebra that makes sharing sound:
//
//   - The large grid, its adjacency bitsets, the labels, and with them
//     the whole upper-bounding phase depend only on ⌈r⌉
//     (grid.LargeWidth rounds up), so one build + one τ^upp pass
//     serves every member.
//   - The small grid and lower bounding depend on the exact r
//     (grid.SmallWidth divides by √dims), so the group keeps one
//     "r-plan" per distinct threshold, all sharing the large grid.
//   - Verification depends on (r, k); members with equal (r, k) share
//     one plan and receive the same *Result.
//
// Per-member results are bitwise-identical to the query-major path —
// including the DistanceComps and AdjComputed counters — because every
// stage either reuses the solo code verbatim on shared inputs, or
// (AdjComputed on the shared grid) replays per-query what a private
// grid would have charged; see query.noteAdj.

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
// and the completed phases can certify one.
func (e *Engine) RunGroup(ctx context.Context, specs []GroupSpec) ([]GroupOutcome, GroupReport) {
	g := &groupRun{
		e:     e,
		ctx:   ctx,
		specs: make([]GroupSpec, len(specs)),
		n:     e.ds.N(),
		outs:  make([]GroupOutcome, len(specs)),
		done:  make([]bool, len(specs)),
		dead:  make([]bool, len(specs)),
		live:  len(specs),
	}
	copy(g.specs, specs)
	g.rep.Members = len(specs)
	for i := range g.specs {
		sp := &g.specs[i]
		if err := e.validate(sp.R, sp.K); err != nil {
			g.fail(i, err)
			continue
		}
		sp.K = min(sp.K, g.n)
		ceil := int(math.Ceil(sp.R))
		if g.ceil == 0 {
			g.ceil = ceil
		} else if ceil != g.ceil {
			g.fail(i, fmt.Errorf("core: group member ⌈r⌉=%d does not match the group's ⌈r⌉=%d", ceil, g.ceil))
		}
	}
	if g.live > 0 {
		g.run()
	}
	return g.outs, g.rep
}

// rPlan carries the exact-r state shared by every member with the same
// threshold: the small grid, key lists, and the lower-bounding pass.
// Its query q is the carrier for that state so the solo lowerBounding
// code runs unchanged.
type rPlan struct {
	r       float64
	members []int
	q       *query
	lbDur   time.Duration
	failed  bool // phase fault consumed this r-plan's members
}

// plan is one distinct (r, k) verification pipeline. Members with
// equal (r, k) share the plan and its Result pointer, the in-group
// analogue of request coalescing.
type plan struct {
	r       float64
	k       int
	rp      *rPlan
	members []int
	qp      *query
	cand    []candidate
	top     []Scored
	verDur  time.Duration
	ranFull bool // verification ran to completion (no cancel, no fault)
	result  *Result
}

type planKey struct {
	r float64
	k int
}

// groupRun orchestrates one shared-⌈r⌉ group through the Algorithm 2
// phase framework.
type groupRun struct {
	e     *Engine
	ctx   context.Context
	specs []GroupSpec
	n     int
	ceil  int

	// mu guards dead/live/done. Parallel verification workers poll
	// member liveness concurrently.
	mu   sync.Mutex
	dead []bool
	live int
	done []bool
	// deadAtStart marks members whose context was already expired when
	// the group began: the solo path returns ctx.Err() for those
	// before any bound exists, so the group must too.
	deadAtStart []bool

	labels    *labelstore.Labels
	newLabels *labelstore.Labels
	labelDur  time.Duration

	large   *grid.LargeGrid
	groups  [][]pointGroup
	gmBroke bool
	gridDur time.Duration

	rPlans     []*rPlan
	plans      []*plan
	memberPlan []*plan

	ubDur     time.Duration
	tauUpp    []int32
	ubDone    bool
	adjShared int // AdjComputed by the shared upper-bounding pass
	adjBase   []bool

	persistFailed bool

	outs []GroupOutcome
	rep  GroupReport
}

// fail delivers a terminal error to member i and removes it from the
// live set.
func (g *groupRun) fail(i int, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.done[i] {
		return
	}
	g.outs[i] = GroupOutcome{Err: err}
	g.done[i] = true
	if !g.dead[i] {
		g.dead[i] = true
		g.live--
	}
}

func (g *groupRun) failMembers(members []int, err error) {
	for _, i := range members {
		g.fail(i, err)
	}
}

func (g *groupRun) failAllLive(err error) {
	for i := range g.specs {
		g.fail(i, err) // a no-op for members already answered
	}
}

// sweepDead refreshes the liveness of every member and returns the
// live count. Called from cancellation polls, possibly concurrently.
func (g *groupRun) sweepDead() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range g.specs {
		if g.dead[i] {
			continue
		}
		if c := g.specs[i].Ctx; c != nil && c.Err() != nil {
			g.dead[i] = true
			g.live--
		}
	}
	return g.live
}

// aborted reports whether the whole group should stop: the epoch
// context expired, or no member is still waiting for work.
func (g *groupRun) aborted() bool {
	if g.ctx != nil && g.ctx.Err() != nil {
		return true
	}
	return g.sweepDead() == 0
}

// membersAllDead reports whether every listed member has detached.
func (g *groupRun) membersAllDead(members []int) bool {
	g.sweepDead()
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, i := range members {
		if !g.dead[i] {
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

// run executes the Algorithm 2 framework once for the whole group.
func (g *groupRun) run() {
	if err := g.fire(fault.PointGroupBuild); err != nil {
		g.failAllLive(err)
		return
	}

	// Record which members were dead on arrival: they get ctx.Err()
	// like a solo query whose context expired before lower bounding.
	g.sweepDead()
	g.mu.Lock()
	g.deadAtStart = append([]bool(nil), g.dead...)
	g.mu.Unlock()

	g.setupPlans()

	// Label input (§III-D), once per group: every member shares ⌈r⌉,
	// the label key.
	if err := g.fire(fault.PointLabelInput); err != nil {
		g.failAllLive(err)
		return
	}
	// Labeling-3 bits are valid at one exact r; a set collected over
	// several r-plans records none.
	collectR := 0.0
	if len(g.rPlans) == 1 {
		collectR = g.rPlans[0].r
	}
	g.labels, g.newLabels, g.labelDur = g.e.labelInput(g.ceil, collectR)

	// Grid mapping: one pass over the objects fills the shared large
	// grid and one small grid per distinct exact r.
	if err := g.fire(fault.PointGridMapping); err != nil {
		g.failAllLive(err)
		return
	}
	t0 := time.Now()
	g.buildIndex()
	g.gridDur = time.Since(t0)
	if g.gmBroke || g.aborted() {
		g.assemble()
		return
	}

	// Lower bounding, once per distinct exact r.
	for _, rp := range g.rPlans {
		if g.aborted() {
			g.assemble()
			return
		}
		if g.membersAllDead(rp.members) {
			continue
		}
		if err := g.fire(fault.PointLowerBounding); err != nil {
			g.failMembers(rp.members, err)
			rp.failed = true
			continue
		}
		t0 = time.Now()
		rp.q.lowerBounding()
		rp.lbDur = time.Since(t0)
	}

	// Upper bounding, once for the whole group: τ^upp depends only on
	// the shared large grid and labels.
	if g.aborted() {
		g.assemble()
		return
	}
	if err := g.fire(fault.PointUpperBounding); err != nil {
		g.failAllLive(err)
		return
	}
	// The τ^upp carrier gets a group-scoped cancel check: the pass
	// serves every member, so it must not stop when the first r-plan's
	// members happen to detach.
	qU := newQuery(g.e, g.rPlans[0].r, 1)
	qU.idx = g.rPlans[0].q.idx
	qU.labels = g.labels
	qU.newLabels = g.newLabels
	qU.cancelCheck = func() bool { return g.aborted() }
	t0 = time.Now()
	qU.computeUpperBounds()
	g.ubDur = time.Since(t0)
	g.tauUpp = qU.tauUpp
	g.ubDone = qU.ubDone
	g.adjShared = qU.stats.AdjComputed
	// The cells holding b^adj after the shared pass: the baseline for
	// per-plan AdjComputed replay (query.noteAdj).
	g.adjBase = qU.adjBaseline()

	g.buildPlanQueries()

	// Verification, once per distinct (r, k).
	for _, pl := range g.plans {
		if g.aborted() {
			break
		}
		if pl.qp == nil || pl.rp.failed || !pl.rp.q.lbDone || g.membersAllDead(pl.members) {
			// Nobody needs the exact answer, or its inputs never
			// completed; degraded members assemble from the bound
			// vectors alone.
			continue
		}
		if err := g.fire(fault.PointVerification); err != nil {
			g.failMembers(pl.members, err)
			continue
		}
		t0 = time.Now()
		pl.top = pl.qp.verification(pl.cand)
		pl.verDur = time.Since(t0)
		pl.ranFull = !pl.qp.cancelled()
	}

	// Post-processing: publish collected labels iff every pipeline ran
	// to completion, so the published set is a deterministic function
	// of (dataset, ⌈r⌉) — the same invariant the solo path keeps by
	// not publishing after a cancellation.
	complete := !g.aborted() && g.ubDone
	for _, pl := range g.plans {
		if !pl.ranFull {
			complete = false
		}
	}
	if complete {
		g.persistFailed = g.e.publishLabels(g.ceil, g.newLabels)
	}

	g.assemble()
}

// setupPlans derives the r-plans (distinct exact r) and plans
// (distinct (r, k)) from the live members, in sorted order so phase
// sequencing is deterministic.
func (g *groupRun) setupPlans() {
	rIdx := map[float64]*rPlan{}
	pIdx := map[planKey]*plan{}
	g.memberPlan = make([]*plan, len(g.specs))
	for i := range g.specs {
		if g.done[i] {
			continue
		}
		sp := &g.specs[i]
		rp := rIdx[sp.R]
		if rp == nil {
			rp = &rPlan{r: sp.R}
			rIdx[sp.R] = rp
			g.rPlans = append(g.rPlans, rp)
		}
		rp.members = append(rp.members, i)
		pk := planKey{r: sp.R, k: sp.K}
		pl := pIdx[pk]
		if pl == nil {
			pl = &plan{r: sp.R, k: sp.K, rp: rp}
			pIdx[pk] = pl
			g.plans = append(g.plans, pl)
		}
		pl.members = append(pl.members, i)
		g.memberPlan[i] = pl
	}
	sort.Slice(g.rPlans, func(a, b int) bool { return g.rPlans[a].r < g.rPlans[b].r })
	sort.Slice(g.plans, func(a, b int) bool {
		if g.plans[a].r != g.plans[b].r {
			return g.plans[a].r < g.plans[b].r
		}
		return g.plans[a].k < g.plans[b].k
	})
	g.rep.RVariants = len(g.rPlans)
	g.rep.Plans = len(g.plans)

	for _, rp := range g.rPlans {
		rp := rp
		q := newQuery(g.e, rp.r, 1)
		q.cancelCheck = func() bool {
			return g.aborted() || g.membersAllDead(rp.members)
		}
		rp.q = q
	}
}

// buildIndex runs the shared grid-mapping pass: one sweep over the
// objects (mapGrids) populates the shared large grid and one small
// grid per r-plan.
func (g *groupRun) buildIndex() {
	rs := make([]float64, len(g.rPlans))
	for si, rp := range g.rPlans {
		rs[si] = rp.r
	}
	large, smalls, complete := g.e.mapGrids(rs, g.labels, nil, 0, g.aborted)
	g.large, g.gmBroke = large, !complete
	g.groups = groupsOf(g.large, g.n)
	for si, rp := range g.rPlans {
		rp.q.idx = newBigrid(smalls[si], g.large, g.groups)
		rp.q.labels = g.labels
		rp.q.newLabels = g.newLabels
	}
}

// buildPlanQueries materialises the per-plan query carriers after the
// shared bounds exist: each inherits its r-plan's small-grid state and
// the group's shared upper bounds, then computes its own threshold and
// candidate list (both functions of (r, k)).
func (g *groupRun) buildPlanQueries() {
	for _, pl := range g.plans {
		pl := pl
		if pl.rp.failed || !pl.rp.q.lbDone {
			continue
		}
		qp := newQuery(g.e, pl.r, pl.k)
		qp.idx = pl.rp.q.idx
		qp.labels = g.labels
		qp.newLabels = g.newLabels
		qp.tauLow = pl.rp.q.tauLow
		qp.tauUpp = g.tauUpp
		qp.lbDone = pl.rp.q.lbDone
		qp.ubDone = g.ubDone
		qp.adjBase = g.adjBase
		qp.cancelCheck = func() bool {
			return g.aborted() || g.membersAllDead(pl.members)
		}
		threshold := qp.kthHighest(qp.tauLow)
		pl.cand = qp.assembleCandidates(threshold)
		pl.qp = qp
	}
}

// assemble turns the group state into per-member outcomes.
func (g *groupRun) assemble() {
	for i := range g.specs {
		g.mu.Lock()
		delivered := g.done[i]
		g.mu.Unlock()
		if delivered {
			continue
		}
		g.outs[i] = g.memberOutcome(i)
	}
}

func (g *groupRun) memberOutcome(i int) GroupOutcome {
	if g.deadAtStart[i] {
		return GroupOutcome{Err: g.specs[i].Ctx.Err()}
	}
	pl := g.memberPlan[i]
	if pl != nil && pl.ranFull && g.ctxErr(i) == nil {
		return GroupOutcome{Result: g.planResult(pl)}
	}
	res, err := g.memberDegraded(i, pl)
	if res == nil && err == nil {
		err = g.errFor(i)
	}
	return GroupOutcome{Result: res, Err: err}
}

// planResult assembles the shared exact Result of a completed plan,
// built once and shared by every member — the same aliasing a
// coalesced flight leader's result gets.
func (g *groupRun) planResult(pl *plan) *Result {
	if pl.result != nil {
		return pl.result
	}
	qp := pl.qp
	g.fillSharedStats(qp, pl)
	qp.finishGridStats()
	res := &Result{TopK: pl.top, Stats: qp.stats}
	if len(pl.top) > 0 {
		res.Best = pl.top[0]
	}
	pl.result = res
	return res
}

// fillSharedStats folds the group-phase measurements into a plan
// query's stats, mirroring what the solo run() records phase by
// phase. The verification-phase counters (Verified, DistanceComps,
// the per-plan AdjComputed replay) are already in qp.stats.
func (g *groupRun) fillSharedStats(qp *query, pl *plan) {
	qp.stats.LabelInput = g.labelDur
	if g.labels != nil {
		qp.stats.UsedLabels = true
		qp.stats.LabelBytes = g.labels.SizeBytes()
	}
	qp.stats.LabelPersistFailed = g.persistFailed
	qp.stats.GridMapping = g.gridDur
	qp.stats.SmallCells = pl.rp.q.idx.small.Len()
	qp.stats.LargeCells = g.large.Len()
	qp.stats.LowerBounding = pl.rp.lbDur
	qp.stats.UpperBounding = g.ubDur
	qp.stats.AdjComputed += g.adjShared
	qp.stats.Candidates = len(pl.cand)
	qp.stats.Verification = pl.verDur
}

// memberDegraded builds the detached member's answer: a certified
// degraded result when the member opted in and the completed phases
// can certify one (same soundness ladder as query.degraded), else the
// member's context error.
func (g *groupRun) memberDegraded(i int, pl *plan) (*Result, error) {
	sp := &g.specs[i]
	if !sp.Degrade || pl == nil {
		return nil, g.errFor(i)
	}
	rp := pl.rp
	if rp.q == nil || rp.q.idx == nil {
		return nil, g.errFor(i)
	}
	qd := newQuery(g.e, sp.R, sp.K)
	qd.ctx = sp.Ctx
	if qd.ctx == nil || qd.ctx.Err() == nil {
		qd.ctx = g.ctx
	}
	if qd.ctx == nil {
		return nil, g.errFor(i)
	}
	qd.degradeOK = true
	qd.gmBroke = g.gmBroke
	qd.idx = rp.q.idx
	qd.labels = g.labels
	qd.lbDone = rp.q.lbDone
	qd.tauLow = rp.q.tauLow
	qd.ubDone = g.ubDone
	qd.tauUpp = g.tauUpp
	var top []Scored
	if pl.qp != nil {
		qd.trunc = pl.qp.trunc
		qd.stats = pl.qp.stats
		top = pl.top
		g.fillSharedStats(qd, pl)
	}
	return qd.degraded(top)
}
