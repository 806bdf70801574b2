package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mio/internal/core"
	"mio/internal/data"
	"mio/internal/fault"
	"mio/internal/server/metrics"
)

// ErrBeyondHorizon is returned when the query radius exceeds the
// partition's replica horizon: shard-local scores would miss
// cross-shard interactions, so the caller must fall back to a
// single-engine run.
var ErrBeyondHorizon = errors.New("shard: query radius exceeds the replica horizon")

// ErrAllShardsDown is returned when no shard produced bounds: there is
// nothing to certify an interval with.
var ErrAllShardsDown = errors.New("shard: every shard failed the bound phase")

// Config tunes the coordinator. The zero value of every field selects
// a sensible default via withDefaults.
type Config struct {
	// Shards is the number of partitions (required, ≥ 2).
	Shards int
	// MaxR is the replica horizon: queries with r ≤ MaxR are answerable
	// by the shards; larger radii return ErrBeyondHorizon. Unset:
	// Horizon's default, DefaultMaxR.
	MaxR float64
	// Retries is how many times a failed bound attempt is relaunched
	// after jittered backoff. Default 1; -1 disables retries.
	Retries int
	// HedgeAfter launches one extra speculative attempt when the first
	// has not answered within this duration — the classic tail-latency
	// hedge. Default DefaultTimeout/4; negative disables hedging.
	HedgeAfter time.Duration
	// Pool is each shard's number of engine slots. A caller serving Q
	// queries concurrently should set SlotsPerQuery × Q, or hedged
	// attempts starve healthy ones out of slots. Default SlotsPerQuery.
	Pool int
	// BreakCooldown is how long a shard's open circuit breaker refuses
	// attempts before its half-open probe. Default 5s.
	BreakCooldown time.Duration
	// Faults, when non-nil, is consulted at the scatter/merge/shard
	// points and threaded into every shard engine.
	Faults *fault.Registry
}

// The per-attempt policy every coordinator runs with:
//   - DefaultTimeout bounds each per-shard attempt (bound phase and
//     verification separately);
//   - a failed bound attempt is retried after backoff, doubled per
//     attempt, plus up to 50% jitter;
//   - DefaultBreakThreshold consecutive failures open a shard's breaker.
const (
	DefaultTimeout        = 2 * time.Second
	DefaultBreakThreshold = 3
	backoff               = 10 * time.Millisecond
)

func (c Config) withDefaults() Config {
	c.MaxR = Horizon(c.MaxR)
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 1
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = DefaultTimeout / 4
	}
	if c.Pool <= 0 {
		c.Pool = SlotsPerQuery
	}
	if c.BreakCooldown <= 0 {
		c.BreakCooldown = 5 * time.Second
	}
	return c
}

// Metrics aggregates the coordinator's observability state; the server
// snapshots it into /metrics.
type Metrics struct {
	// Scatter observes per-shard bound-attempt latency; Merge observes
	// the gather/verify/merge tail after the last bound arrives; Hedge
	// observes how long the primary attempt had been running when its
	// hedge launched.
	Scatter  *metrics.Histogram
	Merge    *metrics.Histogram
	Hedge    *metrics.Histogram
	Hedges   *metrics.Counter
	Retries  *metrics.Counter
	Downs    *metrics.Counter // shard outcomes that ended down or late
	Degraded *metrics.Counter
	// Stale counts bound attempts whose response the generation guard
	// rejected: the worker serves another dataset generation. Bad
	// counts responses rejected by strict validation (corrupt envelope,
	// malformed payload). Both are remote-transport failures that
	// degrade the shard instead of poisoning the merge.
	Stale *metrics.Counter
	Bad   *metrics.Counter
	// Pruned observes, per query, how many shards the bound merge
	// eliminated before verification.
	Pruned *metrics.IntHistogram
}

func newMetrics() *Metrics {
	return &Metrics{
		Scatter:  metrics.NewHistogram(nil),
		Merge:    metrics.NewHistogram(nil),
		Hedge:    metrics.NewHistogram(nil),
		Hedges:   new(metrics.Counter),
		Retries:  new(metrics.Counter),
		Downs:    new(metrics.Counter),
		Degraded: new(metrics.Counter),
		Stale:    new(metrics.Counter),
		Bad:      new(metrics.Counter),
		Pruned:   metrics.NewIntHistogram(metrics.PowerOfTwoBounds(64)),
	}
}

// Coordinator scatters MIO queries across N shards — in-process engine
// pools or remote worker processes, behind the same Backend interface —
// and gathers the per-shard bounds and verified results back into a
// single answer. On a healthy cluster the answer is bitwise-identical
// to a single-engine run; when shards are slow, dead or flapping it
// degrades to a certified [LB, UB] interval instead of failing
// (DESIGN.md §15, §17).
type Coordinator struct {
	cfg    Config
	shards []*Shard
	n      int // global object count
	m      *Metrics
}

// New partitions ds per cfg and builds in-process shard engines. opts
// is the per-shard engine template (see NewLocalBackend); cfg.Faults
// overrides opts.Faults so one registry drives both coordinator and
// engine points.
func New(ds *data.Dataset, opts core.Options, cfg Config) (*Coordinator, error) {
	d := cfg.withDefaults()
	part, err := BuildPartition(ds, d.Shards, d.MaxR)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		opts.Faults = cfg.Faults
	}
	backends := make([]Backend, d.Shards)
	for s := range backends {
		if backends[s], err = NewLocalBackend(part, ds, s, opts, d.Pool, 0); err != nil {
			return nil, err
		}
	}
	return NewWithBackends(backends, ds.N(), cfg)
}

// NewWithBackends builds a coordinator over caller-supplied shard
// transports — the multi-process entry point, where each backend is a
// remote worker client. n is the global object count (the trivial
// degradation bound when a shard has no recorded envelope); backends
// are taken in shard-id order. The coordinator owns the backends and
// closes them via Close.
func NewWithBackends(backends []Backend, n int, cfg Config) (*Coordinator, error) {
	if len(backends) < 2 {
		return nil, fmt.Errorf("shard: need at least 2 backends, got %d", len(backends))
	}
	if n < 2 {
		return nil, fmt.Errorf("shard: need at least 2 objects, got %d", n)
	}
	cfg.Shards = len(backends)
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		shards: make([]*Shard, len(backends)),
		n:      n,
		m:      newMetrics(),
	}
	for s, b := range backends {
		c.shards[s] = newShard(s, b, cfg.BreakCooldown)
	}
	return c, nil
}

// Close releases every shard backend (closes remote clients' idle
// connections). In-flight queries may still complete; new ones should
// not be issued.
func (c *Coordinator) Close() {
	for _, sh := range c.shards {
		sh.backend.Close()
	}
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return c.cfg.Shards }

// MaxR returns the replica horizon.
func (c *Coordinator) MaxR() float64 { return c.cfg.MaxR }

// Metrics returns the coordinator's metric set.
func (c *Coordinator) Metrics() *Metrics { return c.m }

// AdoptMetrics replaces the coordinator's metric set, letting a
// replacement coordinator (dataset swap) continue its predecessor's
// counters. Must be called before the coordinator serves queries.
func (c *Coordinator) AdoptMetrics(m *Metrics) { c.m = m }

// IndexCache sums the τ^upp caches of the in-process shards' engine
// pools. A remote worker's pool lives in its own process and is not
// counted.
func (c *Coordinator) IndexCache() core.IndexCacheStats {
	var sum core.IndexCacheStats
	for _, sh := range c.shards {
		if lb, ok := sh.backend.(*LocalBackend); ok {
			sum = sum.Add(lb.pool.IndexCache())
		}
	}
	return sum
}

// IdleSlots sums the free and total engine slots of the in-process
// shards; idle < total while a query holds one. A remote worker's slots
// live in its own process and are not counted.
func (c *Coordinator) IdleSlots() (idle, total int) {
	for _, sh := range c.shards {
		if lb, ok := sh.backend.(*LocalBackend); ok {
			idle, total = idle+lb.pool.Idle(), total+lb.pool.Cap()
		}
	}
	return idle, total
}

// Health snapshots every shard's status, ordered by id.
func (c *Coordinator) Health() []Health {
	hs := make([]Health, 0, len(c.shards))
	for _, sh := range c.shards {
		hs = append(hs, sh.health())
	}
	sortHealth(hs)
	return hs
}

// attemptRes is one bound attempt's outcome.
type attemptRes struct {
	bounds Bounds
	err    error
}

// shardBound is one shard's overall bound-phase outcome after retries
// and hedging.
type shardBound struct {
	sh       *Shard
	bounds   Bounds
	attempts int
	hedged   bool
	err      error
}

// Query answers the MIO query (r, k) by scatter–gather. It returns the
// merged result, a per-shard report, and an error only when the query
// itself is invalid (or every shard is unreachable). Shard failures
// degrade the result instead: each shard's outcome states a
// core.Certificate, and their join is the answer (Certificate.Result),
// whose Interval brackets both Best's exact score and the optimum's.
func (c *Coordinator) Query(ctx context.Context, r float64, k int) (*core.Result, *Report, error) {
	if !(r > 0) {
		return nil, nil, fmt.Errorf("shard: %w: distance threshold must be positive, got %g", core.ErrInvalidQuery, r)
	}
	if k < 1 {
		return nil, nil, fmt.Errorf("shard: %w: k must be at least 1, got %d", core.ErrInvalidQuery, k)
	}
	if r > c.cfg.MaxR {
		return nil, nil, fmt.Errorf("%w (r=%g, horizon=%g)", ErrBeyondHorizon, r, c.cfg.MaxR)
	}
	if err := c.cfg.Faults.Fire(fault.PointScatter); err != nil {
		return nil, nil, err
	}

	// Instant-death injection: fired per shard in id order before the
	// fan-out so chaos schedules (Rule.After) are deterministic.
	down := make([]error, len(c.shards))
	for i := range c.shards {
		down[i] = c.cfg.Faults.Fire(fault.PointShardDown)
	}

	// Scatter the bound phase.
	bounds := make([]shardBound, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		bounds[i] = shardBound{sh: sh}
		if down[i] != nil {
			bounds[i].err = down[i]
			sh.noteError(down[i])
			continue
		}
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			bounds[i] = c.boundShard(ctx, sh, r, k)
		}(i, sh)
	}
	wg.Wait()
	tMerge := time.Now()

	// The coordinator does not know the shards' extents, so an r too
	// small for a shard's cell keys is only refused there. One refusal
	// speaks for the query: the parameters are wrong, not the shards.
	var err error
	for i := range bounds {
		if errors.Is(bounds[i].err, core.ErrInvalidQuery) {
			err = bounds[i].err
			break
		}
	}
	if err == nil {
		err = c.cfg.Faults.Fire(fault.PointMerge)
	}
	if err != nil {
		for i := range bounds {
			if bounds[i].bounds != nil {
				bounds[i].bounds.Release()
			}
		}
		return nil, nil, err
	}

	res, rep := c.gather(ctx, r, k, bounds)
	c.m.Merge.Observe(time.Since(tMerge))
	if res == nil {
		return nil, rep, ErrAllShardsDown
	}
	if res.Degraded {
		c.m.Degraded.Inc()
	}
	c.m.Pruned.Observe(int64(rep.Pruned))
	return res, rep, nil
}

// boundShard drives one shard's bound phase: breaker-gated attempts
// with per-attempt deadlines, jittered-backoff retries, and one hedged
// attempt if the first straggles. The first success wins; a reaper
// drains losing attempts and releases their bounds.
func (c *Coordinator) boundShard(ctx context.Context, sh *Shard, r float64, k int) shardBound {
	out := shardBound{sh: sh}
	budget := 1 + c.cfg.Retries // sequential attempts; hedge is extra
	resCh := make(chan attemptRes, budget+1)
	outstanding := 0
	t0 := time.Now()

	launch := func() {
		out.attempts++
		outstanding++
		go func() { resCh <- c.attempt(ctx, sh, r, k) }()
	}
	launch()
	launched := 1

	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		ht := time.NewTimer(c.cfg.HedgeAfter)
		defer ht.Stop()
		hedgeC = ht.C
	}
	var backoffT *time.Timer
	var backoffC <-chan time.Time
	defer func() {
		if backoffT != nil {
			backoffT.Stop()
		}
	}()

	finish := func(win attemptRes) shardBound {
		out.bounds, out.err = win.bounds, win.err
		if outstanding > 0 {
			// Losing attempts are still running; drain them off-path so
			// their resources (engine slots, remote handles) come back.
			go func(pending int) {
				for i := 0; i < pending; i++ {
					if late := <-resCh; late.bounds != nil {
						late.bounds.Release()
					}
				}
			}(outstanding)
		}
		return out
	}

	for {
		select {
		case res := <-resCh:
			outstanding--
			if res.err == nil {
				return finish(res)
			}
			out.err = res.err
			if outstanding > 0 {
				continue // the hedge may still win
			}
			if launched < budget && ctx.Err() == nil && !errors.Is(res.err, core.ErrInvalidQuery) {
				c.m.Retries.Inc()
				launched++
				d := backoff << (launched - 2)
				d += time.Duration(rand.Int63n(int64(d)/2 + 1))
				backoffT = time.NewTimer(d)
				backoffC = backoffT.C
				continue
			}
			return out
		case <-backoffC:
			backoffC = nil
			launch()
		case <-hedgeC:
			hedgeC = nil
			// The hedge rides outside the retry budget: one extra
			// concurrent attempt racing the straggler.
			if outstanding == 1 && !out.hedged && ctx.Err() == nil {
				out.hedged = true
				c.m.Hedges.Inc()
				c.m.Hedge.Observe(time.Since(t0))
				launch()
			}
		case <-ctx.Done():
			if out.err == nil {
				out.err = ctx.Err()
			}
			return finish(attemptRes{err: out.err})
		}
	}
}

// attempt runs one breaker-gated bound attempt against the shard's
// backend. Backends convert panics to errors, so only bookkeeping
// lives here: breaker charging (refusals, pool exhaustion and invalid
// queries exempt), per-class failure counters, and the degradation
// envelope. The breaker is every shard's one liveness signal, remote
// or in-process: a dead, hung, hostile or stale worker is charged here
// and nowhere else.
func (c *Coordinator) attempt(ctx context.Context, sh *Shard, r float64, k int) attemptRes {
	if retry, ok := sh.br.Allow(); !ok {
		// Refused, not failed: the breaker's own bookkeeping must not
		// see refusals or it would never half-open.
		return attemptRes{err: fmt.Errorf("shard %d: %w (retry in %s)", sh.id, ErrBreakerOpen, retry.Round(time.Millisecond))}
	}
	actx, cancel := context.WithTimeout(ctx, DefaultTimeout)
	defer cancel()
	t0 := time.Now()
	b, err := sh.backend.Bound(actx, r, k)
	c.m.Scatter.Observe(time.Since(t0))
	if err != nil {
		if errors.Is(err, ErrNoSlot) || errors.Is(err, core.ErrInvalidQuery) {
			// The shard is busy, or turned the query itself down; it is
			// not broken: no breaker charge, no health note — the caller's
			// admission control or parameters are at fault.
			return attemptRes{err: err}
		}
		switch {
		case errors.Is(err, ErrStaleGeneration):
			c.m.Stale.Inc()
		case errors.Is(err, ErrBadResponse):
			c.m.Bad.Inc()
		}
		sh.br.Failure()
		sh.noteError(err)
		return attemptRes{err: err}
	}
	sh.br.Success()
	sh.recordEnvelope(r, b.MaxUB())
	return attemptRes{bounds: b}
}

// gather merges the per-shard bound outcomes: computes the global
// verification floor, prunes shards whose upper bound cannot reach it,
// completes the survivors concurrently, and assembles either the exact
// merged top-k or, when a shard was down or late, the degraded answer
// the shards' joined certificates support. Returns nil when no shard
// certified an object (every shard down).
func (c *Coordinator) gather(ctx context.Context, r float64, k int, bounds []shardBound) (*core.Result, *Report) {
	rep := &Report{Shards: len(bounds), PerShard: make([]ShardRun, len(bounds))}
	type boundInfo struct {
		tops  []core.Scored
		maxUB int
	}
	infos := make([]boundInfo, len(bounds))
	var tops [][]core.Scored
	for i := range bounds {
		b := &bounds[i]
		run := &rep.PerShard[i]
		run.ID = b.sh.id
		run.Attempts = b.attempts
		run.Hedged = b.hedged
		retries := b.attempts - 1
		if b.hedged {
			retries-- // the hedge launch is not a retry
		}
		rep.Retries += max(0, retries)
		if b.hedged {
			rep.Hedges++
		}
		if b.bounds == nil {
			run.State = StateDown
			if b.err != nil {
				run.Err = b.err.Error()
			}
			c.m.Downs.Inc()
			continue
		}
		infos[i] = boundInfo{tops: b.bounds.TopLBs(), maxUB: b.bounds.MaxUB()}
		run.MaxUB = infos[i].maxUB
		if len(infos[i].tops) > 0 {
			run.BestLB = infos[i].tops[0].Score
		}
		tops = append(tops, infos[i].tops)
	}

	// The floor is sound globally even with shards down: it only
	// asserts that k objects score at least this much, which the
	// surviving shards' bounds already prove.
	floor := mergeFloor(tops, k)
	rep.Floor = floor

	// Prune, then complete the survivors concurrently.
	var wg sync.WaitGroup
	results := make([]*core.Result, len(bounds))
	stats := make([]core.PhaseStats, len(bounds))
	errs := make([]error, len(bounds))
	for i := range bounds {
		b := &bounds[i]
		if b.bounds == nil {
			continue
		}
		if infos[i].maxUB < floor {
			rep.PerShard[i].State = StatePruned
			rep.Pruned++
			// Cannot hold an answer, but its bound-phase work counts;
			// snapshot the stats before the release invalidates them.
			stats[i] = b.bounds.Stats()
			b.bounds.Release()
			continue
		}
		wg.Add(1)
		go func(i int, b *shardBound) {
			defer wg.Done()
			results[i], errs[i] = c.complete(ctx, b, floor)
		}(i, b)
	}
	wg.Wait()

	// Assemble: exact lists from completed shards, and from every shard
	// the certificate of what it vouches for (core.Certificate), which a
	// degraded answer joins.
	var lists [][]core.Scored
	var allStats []core.PhaseStats
	degraded := false
	cert := core.BoundOnly(0)
	for i := range bounds {
		b := &bounds[i]
		run := &rep.PerShard[i]
		switch {
		case run.State == StatePruned:
			allStats = append(allStats, stats[i])
			cert = cert.Join(core.BoundOnly(infos[i].maxUB))
		case b.bounds == nil:
			degraded = true
			rep.Failed++
			ub, ok := b.sh.envelopeUB(r)
			if !ok {
				ub = c.n - 1 // trivial: no object interacts with more than n-1 others
			}
			cert = cert.Join(core.BoundOnly(ub))
		case errs[i] != nil:
			run.State = StateLate
			run.Err = errs[i].Error()
			degraded = true
			rep.Failed++
			c.m.Downs.Inc()
			b.sh.noteError(errs[i])
			// Its bounds are still certified: its best primary scores at
			// least TopLBs[0] and at most MaxUB.
			late := core.BoundOnly(infos[i].maxUB)
			if len(infos[i].tops) > 0 {
				late.Best = infos[i].tops[0]
			}
			cert = cert.Join(late)
		default:
			run.State = StateOK
			res := results[i]
			allStats = append(allStats, res.Stats)
			lists = append(lists, res.TopK)
			if len(res.TopK) > 0 {
				cert = cert.Join(core.Certificate{Best: res.TopK[0], UB: res.TopK[0].Score})
			}
		}
	}

	st := mergeStats(allStats)
	if degraded {
		rep.Degraded = true
		return cert.Result(st), rep
	}
	out := &core.Result{TopK: mergeTopK(lists, k), Stats: st}
	if len(out.TopK) > 0 {
		out.Best = out.TopK[0]
	}
	return out, rep
}

// complete runs a shard's verification against the merged floor with
// the same per-attempt deadline and breaker discipline as the bound
// attempts. Backends own resource return (engine slots, remote
// handles) and panic conversion.
func (c *Coordinator) complete(ctx context.Context, b *shardBound, floor int) (*core.Result, error) {
	actx, cancel := context.WithTimeout(ctx, DefaultTimeout)
	defer cancel()
	r, err := b.bounds.Complete(actx, floor)
	if err != nil {
		b.sh.br.Failure()
		return nil, err
	}
	b.sh.br.Success()
	return r, nil
}
