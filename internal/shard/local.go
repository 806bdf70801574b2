package shard

import (
	"context"
	"fmt"
	"time"

	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/fault"
)

// LocalBackend is the in-process shard transport: a core.Pool of
// engines over one shard's local dataset, plus the local→global id
// mapping. The coordinator drives one per shard directly; a remote
// worker (internal/shard/remote) serves exactly one over HTTP, so both
// deployments run the same engine, quarantine and mapping code.
type LocalBackend struct {
	id      int
	global  []int32 // local id → global id
	primary []bool
	info    BackendInfo
	faults  *fault.Registry
	pool    *core.Pool
	// wait is how long Bound queues for an engine (core.Pool.Acquire):
	// 0 waits as long as the attempt's context allows.
	wait time.Duration
}

// NewLocalBackend builds shard id of part over ds with pool engines.
// opts is the engine template; a configured label store is replaced
// with a fresh in-memory one, since shard-local ids make a shared store
// meaningless.
func NewLocalBackend(part *Partition, ds *data.Dataset, id int, opts core.Options, pool int, wait time.Duration) (*LocalBackend, error) {
	local, primary := part.ShardDataset(ds, id)
	if opts.Labels != nil {
		opts.Labels = labelstore.NewStore()
	}
	p, err := core.NewPool(local, opts, pool)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	prim := part.Primaries(id)
	return &LocalBackend{
		id:      id,
		global:  part.Members[id],
		primary: primary,
		info:    BackendInfo{Objects: len(primary), Primaries: prim, Replicas: len(primary) - prim},
		faults:  opts.Faults,
		pool:    p,
		wait:    wait,
	}, nil
}

// Bound acquires an engine and runs the bound phase restricted to the
// shard's primaries. A panic anywhere inside (fault injection or the
// engine itself) quarantines the engine — its slot is refilled from
// the template — and converts to an error so the coordinator's retry
// loop stays alive.
func (lb *LocalBackend) Bound(ctx context.Context, r float64, k int) (b Bounds, err error) {
	eng, aerr := lb.pool.Acquire(ctx, lb.wait)
	if aerr != nil {
		return nil, fmt.Errorf("shard %d: %w: %w", lb.id, ErrNoSlot, aerr)
	}
	defer func() {
		if p := recover(); p != nil {
			lb.pool.Quarantine(eng)
			b, err = nil, fmt.Errorf("shard %d: panic: %v", lb.id, p)
		} else if err != nil {
			lb.pool.Release(eng)
		}
	}()
	// Fired with the engine held: a panic rule here must exercise the
	// quarantine path.
	if err := lb.faults.Fire(fault.PointShardRun); err != nil {
		return nil, err
	}
	set, err := eng.Bound(ctx, r, k, lb.primary)
	if err != nil {
		return nil, err
	}
	return &localBounds{lb: lb, set: set, eng: eng}, nil
}

func (lb *LocalBackend) Info() BackendInfo { return lb.info }

func (lb *LocalBackend) Close() {}

// localBounds is a paused in-process query: the BoundSet plus the
// engine it is tied to.
type localBounds struct {
	lb  *LocalBackend
	set *core.BoundSet
	eng *core.Engine
}

// TopLBs maps the shard-local canonical top LBs to global ids. The
// mapping is order-preserving: Members[s] is ascending, so local-id
// ties break exactly as global-id ties would.
func (b *localBounds) TopLBs() []core.Scored { return toGlobal(b.lb.global, b.set.TopLBs()) }

func (b *localBounds) MaxUB() int { return b.set.MaxUB() }

func (b *localBounds) Stats() core.PhaseStats { return b.set.Stats() }

func (b *localBounds) Release() { b.lb.pool.Release(b.eng) }

// Complete resumes verification with the same panic-quarantine
// discipline as Bound and always returns the engine to the pool.
func (b *localBounds) Complete(ctx context.Context, floor int) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			b.lb.pool.Quarantine(b.eng)
			res, err = nil, fmt.Errorf("shard %d: panic: %v", b.lb.id, p)
			return
		}
		b.lb.pool.Release(b.eng)
	}()
	res, err = b.set.Complete(ctx, floor)
	if err != nil {
		return nil, err
	}
	res.TopK = toGlobal(b.lb.global, res.TopK)
	if len(res.TopK) > 0 {
		res.Best = res.TopK[0]
	}
	return res, nil
}
