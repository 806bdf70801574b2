// Package batch is the cross-query execution layer between the HTTP
// handlers and the engine pool: an epoch-driven executor that gathers
// the in-flight query set, groups it by ⌈r⌉, and runs each group
// through core.RunGroup so one large grid and one upper-bounding pass
// feed every interested query.
//
// It generalises request coalescing (internal/server/flight): flight
// collapses *identical* requests into one engine run; an epoch
// collapses *similar* requests — same ⌈r⌉, any (r, k) — into one
// shared build and one upper-bounding pass, while still returning
// per-query results bitwise identical to the query-major path.
//
// Epoch lifecycle: the first Submit after a dispatch opens a fresh
// epoch and arms its gather window; the epoch seals when the window
// elapses or the size trigger (MaxBatch) fires, whichever is first.
// Sealed epochs dispatch on their own goroutine: members are grouped
// by ⌈r⌉ and each group runs through the configured RunFunc. A member
// whose context expires detaches immediately — Submit returns its
// context error without waiting for the epoch, and the group run skips
// what only that member needed. Degrade members instead wait for the
// epoch to finish so they can carry home a certified degraded answer.
package batch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"mio/internal/core"
	"mio/internal/fault"
	"mio/internal/server/metrics"
)

// RunFunc executes one shared-⌈r⌉ group. The server wires this to an
// engine-pool acquisition around core.RunGroup; tests substitute their
// own. A non-nil error fails every member of the group.
type RunFunc func(specs []core.GroupSpec) ([]core.GroupOutcome, core.GroupReport, error)

// Config configures an Engine.
type Config struct {
	// Window is the gather window: how long an epoch stays open after
	// its first query before sealing. 0 selects DefaultWindow.
	Window time.Duration
	// MaxBatch seals an epoch early once it holds this many queries.
	// 0 selects DefaultMaxBatch.
	MaxBatch int
	// Faults, when non-nil, is consulted at PointEpochClose when an
	// epoch seals.
	Faults *fault.Registry
	// Run executes one group; required.
	Run RunFunc
}

// DefaultWindow is the default gather window. Two milliseconds is
// long enough to catch a concurrent burst and an order of magnitude
// below the cold-query latency it amortises.
const DefaultWindow = 2 * time.Millisecond

// DefaultMaxBatch bounds the queries per epoch.
const DefaultMaxBatch = 128

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("batch: engine closed")

// request is one submitted query waiting for its epoch.
type request struct {
	spec core.GroupSpec
	out  chan core.GroupOutcome // buffered; exactly one send
}

// epoch is one gather generation.
type epoch struct {
	opened time.Time
	reqs   []*request
	timer  *time.Timer
	sealed bool
}

// Engine gathers concurrent queries into epochs and dispatches them
// as shared-⌈r⌉ groups.
type Engine struct {
	cfg Config

	mu     sync.Mutex
	cur    *epoch
	closed bool

	wg sync.WaitGroup // in-flight dispatches

	epochs     metrics.Counter
	queries    metrics.Counter
	groups     metrics.Counter
	plans      metrics.Counter
	sharedWork metrics.Counter // queries served by a plan another member owned
	failures   metrics.Counter // group runs that returned an error
	panics     metrics.Counter // group runs that panicked (recovered)

	batchSize  *metrics.IntHistogram
	gatherWait *metrics.Histogram
}

// New returns an Engine; Config.Run is required.
func New(cfg Config) (*Engine, error) {
	if cfg.Run == nil {
		return nil, errors.New("batch: Config.Run is required")
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	return &Engine{
		cfg:        cfg,
		batchSize:  metrics.NewIntHistogram(metrics.PowerOfTwoBounds(int64(cfg.MaxBatch))),
		gatherWait: metrics.NewHistogram(nil),
	}, nil
}

// Submit enqueues one query into the current epoch and waits for its
// outcome. ctx detaches the caller: without degrade, Submit returns
// ctx.Err() as soon as the context expires; with degrade it waits for
// the epoch anyway, because only the finished group can certify the
// degraded answer the caller asked for.
func (b *Engine) Submit(ctx context.Context, r float64, k int, degrade bool) (*core.Result, error) {
	req := &request{
		spec: core.GroupSpec{R: r, K: k, Degrade: degrade, Ctx: ctx},
		out:  make(chan core.GroupOutcome, 1),
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	ep := b.cur
	if ep == nil {
		ep = &epoch{opened: time.Now()}
		b.cur = ep
		// The timer fires on its own goroutine; seal() re-checks state
		// under the lock, so a racing size trigger wins harmlessly.
		ep.timer = time.AfterFunc(b.cfg.Window, func() { b.seal(ep) })
	}
	ep.reqs = append(ep.reqs, req)
	full := len(ep.reqs) >= b.cfg.MaxBatch
	b.mu.Unlock()

	if full {
		b.seal(ep)
	}

	select {
	case o := <-req.out:
		return o.Result, o.Err
	case <-ctx.Done():
		if degrade {
			o := <-req.out
			return o.Result, o.Err
		}
		// Detach: the epoch delivers into the buffered channel and
		// moves on; the group run notices the dead member and skips
		// work only it needed.
		return nil, ctx.Err()
	}
}

// seal closes ep (idempotently) and dispatches it in the background.
func (b *Engine) seal(ep *epoch) {
	b.mu.Lock()
	if ep.sealed {
		b.mu.Unlock()
		return
	}
	ep.sealed = true
	if b.cur == ep {
		b.cur = nil
	}
	ep.timer.Stop()
	b.wg.Add(1)
	b.mu.Unlock()
	go b.dispatch(ep)
}

// Close seals any open epoch, waits for in-flight dispatches, and
// rejects future Submits. Already-gathered queries are answered.
func (b *Engine) Close() {
	b.mu.Lock()
	b.closed = true
	ep := b.cur
	b.mu.Unlock()
	if ep != nil {
		b.seal(ep)
	}
	b.wg.Wait()
}

// dispatch runs one sealed epoch: observe the gather, fire the
// epoch-close fault point, group members by ⌈r⌉, and run the groups
// concurrently. Delivery to every member is guaranteed: each request's
// buffered channel receives exactly one outcome even when a group run
// fails or panics.
func (b *Engine) dispatch(ep *epoch) {
	defer b.wg.Done()
	b.epochs.Inc()
	b.queries.Add(uint64(len(ep.reqs)))
	b.batchSize.Observe(int64(len(ep.reqs)))
	b.gatherWait.Observe(time.Since(ep.opened))

	if err := b.cfg.Faults.Fire(fault.PointEpochClose); err != nil {
		for _, req := range ep.reqs {
			req.out <- core.GroupOutcome{Err: err}
		}
		return
	}

	// Group member indices by ⌈r⌉; invalid thresholds keep their own
	// singleton groups so RunGroup reports the precise error.
	byCeil := make(map[int][]int)
	var ceils []int
	for i, req := range ep.reqs {
		ceil := -1 - i // unique bucket for specs RunGroup will reject
		if req.spec.R > 0 {
			ceil = int(math.Ceil(req.spec.R))
		}
		if _, ok := byCeil[ceil]; !ok {
			ceils = append(ceils, ceil)
		}
		byCeil[ceil] = append(byCeil[ceil], i)
	}
	sort.Ints(ceils)

	var wg sync.WaitGroup
	for _, ceil := range ceils {
		members := byCeil[ceil]
		wg.Add(1)
		go func(members []int) {
			defer wg.Done()
			b.runGroup(ep, members)
		}(members)
	}
	wg.Wait()
}

// runGroup executes one group and delivers each member's outcome.
func (b *Engine) runGroup(ep *epoch, members []int) {
	delivered := false
	defer func() {
		if rec := recover(); rec != nil {
			b.panics.Inc()
			if !delivered {
				err := fmt.Errorf("batch: group run panicked: %v", rec)
				for _, i := range members {
					ep.reqs[i].out <- core.GroupOutcome{Err: err}
				}
			}
		}
	}()

	specs := make([]core.GroupSpec, len(members))
	for j, i := range members {
		specs[j] = ep.reqs[i].spec
	}
	outs, rep, err := b.cfg.Run(specs)
	if err != nil || len(outs) != len(members) {
		if err == nil {
			err = fmt.Errorf("batch: group runner returned %d outcomes for %d members", len(outs), len(members))
		}
		b.failures.Inc()
		delivered = true
		for _, i := range members {
			ep.reqs[i].out <- core.GroupOutcome{Err: err}
		}
		return
	}

	b.groups.Inc()
	b.plans.Add(uint64(rep.Plans))
	if extra := len(members) - rep.Plans; extra > 0 {
		b.sharedWork.Add(uint64(extra))
	}

	delivered = true
	for j, i := range members {
		ep.reqs[i].out <- outs[j]
	}
}

// Stats is a point-in-time view of the engine's counters and epoch
// histograms, serialised into the server's /metrics payload.
type Stats struct {
	// Epochs counts sealed epochs; Queries the members they gathered;
	// Groups the shared-⌈r⌉ group runs that completed; Plans the
	// distinct (r, k) pipelines those groups executed. SharedWork is
	// Queries minus Plans summed per group: answers obtained without a
	// pipeline of their own.
	Epochs     uint64 `json:"epochs"`
	Queries    uint64 `json:"queries"`
	Groups     uint64 `json:"groups"`
	Plans      uint64 `json:"plans"`
	SharedWork uint64 `json:"shared_work"`
	Failures   uint64 `json:"failures"`
	Panics     uint64 `json:"panics"`

	BatchSize  metrics.IntSnapshot `json:"batch_size"`
	GatherWait metrics.Snapshot    `json:"gather_wait"`
}

// Stats snapshots the engine; withBuckets includes raw histogram
// buckets.
func (b *Engine) Stats(withBuckets bool) Stats {
	return Stats{
		Epochs:     b.epochs.Value(),
		Queries:    b.queries.Value(),
		Groups:     b.groups.Value(),
		Plans:      b.plans.Value(),
		SharedWork: b.sharedWork.Value(),
		Failures:   b.failures.Value(),
		Panics:     b.panics.Value(),

		BatchSize:  b.batchSize.Snapshot(withBuckets),
		GatherWait: b.gatherWait.Snapshot(withBuckets),
	}
}
