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

// LocalBackend is the in-process shard transport: a core.Pool over one
// shard's local dataset, plus the local→global id mapping. The
// coordinator drives one per shard directly; a remote worker
// (internal/shard/remote) serves exactly one over HTTP, so both
// deployments run the same engine, panic handling and mapping code.
type LocalBackend struct {
	id      int
	global  []int32 // local id → global id
	primary []bool
	info    BackendInfo
	faults  *fault.Registry
	pool    *core.Pool
	// wait is how long Bound queues for a slot (core.Pool.Acquire): 0
	// waits as long as the attempt's context allows.
	wait time.Duration
}

// NewLocalBackend builds shard id of part over ds with pool query
// slots. opts configures the engine; a configured label store is
// replaced with a fresh in-memory one, since shard-local ids make a
// shared store meaningless.
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
		info:    BackendInfo{Counts: &Counts{Objects: len(primary), Primaries: prim, Replicas: len(primary) - prim}},
		faults:  opts.Faults,
		pool:    p,
		wait:    wait,
	}, nil
}

// Bound takes a slot and runs the bound phase restricted to the
// shard's primaries. The slot stays held until the bounds are completed
// or released; a failed or panicking attempt gives it back at once.
func (lb *LocalBackend) Bound(ctx context.Context, r float64, k int) (b Bounds, err error) {
	eng, aerr := lb.pool.Acquire(ctx, lb.wait)
	if aerr != nil {
		return nil, fmt.Errorf("shard %d: %w: %w", lb.id, ErrNoSlot, aerr)
	}
	defer lb.settle(&err, true)
	// Fired with the slot held: a panic rule here must exercise settle.
	if err := lb.faults.Fire(fault.PointShardRun); err != nil {
		return nil, err
	}
	set, err := eng.Bound(ctx, r, k, lb.primary)
	if err != nil {
		return nil, err
	}
	return &localBounds{lb: lb, set: set}, nil
}

// settle ends a call made holding a slot. A panic anywhere inside
// (fault injection or the engine itself) becomes *err, so the
// coordinator's retry loop stays alive; the slot goes back on an error
// or when the call does not keep it for a paused query.
func (lb *LocalBackend) settle(err *error, keep bool) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("shard %d: panic: %v", lb.id, p)
	}
	if *err != nil || !keep {
		lb.pool.Release()
	}
}

func (lb *LocalBackend) Info() BackendInfo { return lb.info }

func (lb *LocalBackend) Close() {}

// localBounds is a paused in-process query: the BoundSet, holding one
// of the backend's slots.
type localBounds struct {
	lb  *LocalBackend
	set *core.BoundSet
}

// TopLBs maps the shard-local canonical top LBs to global ids. The
// mapping is order-preserving: Members[s] is ascending, so local-id
// ties break exactly as global-id ties would.
func (b *localBounds) TopLBs() []core.Scored { return toGlobal(b.lb.global, b.set.TopLBs()) }

func (b *localBounds) MaxUB() int { return b.set.MaxUB() }

func (b *localBounds) Stats() core.PhaseStats { return b.set.Stats() }

func (b *localBounds) Release() { b.lb.pool.Release() }

// Complete resumes verification, turning a panic into an error as Bound
// does, and always gives the slot back.
func (b *localBounds) Complete(ctx context.Context, floor int) (_ *core.Result, err error) {
	defer b.lb.settle(&err, false)
	res, err := b.set.Complete(ctx, floor)
	if err != nil {
		return nil, err
	}
	res.TopK = toGlobal(b.lb.global, res.TopK)
	if len(res.TopK) > 0 {
		res.Best = res.TopK[0]
	}
	return res, nil
}
