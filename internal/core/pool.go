package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mio/internal/data"
)

// ErrPoolBusy is returned by Pool.Acquire when every slot stayed
// taken for the whole admission wait.
var ErrPoolBusy = errors.New("core: all engines busy")

// Pool is one engine over one dataset plus a fixed number of query
// slots: the serving layers' admission semaphore (a query runs only
// while it holds a slot). Every piece of per-query state lives in the
// query, so the engine answers concurrent queries and one engine serves
// every slot. Every Acquire that succeeds is matched by exactly one
// Release.
type Pool struct {
	// eng is the engine Acquire hands out: dataset, exact options
	// (including the shared label store) and the coordinate extent
	// NewEngine scanned the dataset for, once per dataset.
	eng atomic.Pointer[Engine]
	// slots holds one token per free slot.
	slots chan struct{}
	// swapMu serialises Swap: two interleaved drains would each hold
	// part of the slots and wait for the rest forever.
	swapMu sync.Mutex
}

// NewPool builds an engine over ds with size slots. When opts.Labels is
// non-nil every query recycles label work through the one store; a
// published label set is immutable and the store is mutex-protected.
func NewPool(ds *data.Dataset, opts Options, size int) (*Pool, error) {
	e, err := NewEngine(ds, opts)
	if err != nil {
		return nil, err
	}
	return newPool(e, size), nil
}

// NewPoolOf wraps one existing engine with a single slot.
func NewPoolOf(e *Engine) *Pool { return newPool(e, 1) }

func newPool(e *Engine, size int) *Pool {
	p := &Pool{slots: make(chan struct{}, size)}
	p.eng.Store(e)
	for range size {
		p.slots <- struct{}{}
	}
	return p
}

// Cap returns the number of slots; Idle how many are free.
func (p *Pool) Cap() int  { return cap(p.slots) }
func (p *Pool) Idle() int { return len(p.slots) }

// Dataset and Options return what the pool's engine is currently
// built from.
func (p *Pool) Dataset() *data.Dataset { return p.eng.Load().ext }
func (p *Pool) Options() Options       { return p.eng.Load().opts }

// IndexCache reports the engine's τ^upp cache. Swap starts a new one.
func (p *Pool) IndexCache() IndexCacheStats { return p.eng.Load().IndexCache() }

// ValidateR reports, as an ErrInvalidQuery, an r the pool's engine
// would refuse, so a caller can turn the request away before it queues
// for a slot or fans out to shards.
func (p *Pool) ValidateR(r float64) error { return p.eng.Load().validate(r, 1) }

// Acquire takes a slot and returns the current engine. When no slot is
// free it queues: for at most wait when wait > 0, until ctx is done
// when wait == 0, not at all when wait < 0. Running out of wait returns
// ErrPoolBusy, a done ctx its error.
func (p *Pool) Acquire(ctx context.Context, wait time.Duration) (*Engine, error) {
	select {
	case <-p.slots:
		return p.eng.Load(), nil
	default:
	}
	if wait < 0 {
		return nil, ErrPoolBusy
	}
	var expired <-chan time.Time
	if wait > 0 {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case <-p.slots:
		return p.eng.Load(), nil
	case <-expired:
		return nil, ErrPoolBusy
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release gives a slot back, whether its query finished, failed or
// panicked.
func (p *Pool) Release() { p.slots <- struct{}{} }

// Swap replaces the engine with one over (ds, opts). The new engine is
// built first, so a failed build leaves the pool untouched; then Swap
// waits for every taken slot to come back, which lets in-flight queries
// finish on the data they started on.
func (p *Pool) Swap(ds *data.Dataset, opts Options) error {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	e, err := NewEngine(ds, opts)
	if err != nil {
		return err
	}
	p.eng.Store(e)
	// swapMu stays held across the drain on purpose: it only serialises
	// swappers (Acquire and Release never take it), and these receives
	// ARE the wait for in-flight queries, old engine or new.
	for range p.Cap() {
		<-p.slots
	}
	for range p.Cap() {
		p.slots <- struct{}{}
	}
	return nil
}
