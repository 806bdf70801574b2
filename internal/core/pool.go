package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"mio/internal/data"
)

// ErrPoolBusy is returned by Pool.Acquire when every engine stayed
// checked out for the whole admission wait.
var ErrPoolBusy = errors.New("core: all engines busy")

// Pool is a fixed-size set of engines over one dataset. An engine runs
// one query at a time, so the pool is at once the serving layers'
// admission semaphore (a query runs only while it holds an engine) and
// their fault boundary: an engine that panicked mid-query is discarded
// and its slot refilled from the template, so the pool never shrinks
// and never hands a possibly-inconsistent engine to a later query.
// Every engine taken with Acquire goes back through exactly one of
// Release or Quarantine.
type Pool struct {
	// slots holds the idle engines.
	slots chan *Engine
	// tmpl is the engine every slot holds a copy of: dataset, exact
	// options (including the shared label store) and the coordinate
	// extent NewEngine scanned the dataset for, once per dataset.
	tmpl atomic.Pointer[Engine]
	// swapMu serialises Swap: two interleaved drains would each hold
	// part of the pool and wait for the rest forever.
	swapMu sync.Mutex
}

// NewPool builds size engines over ds. When opts.Labels is non-nil the
// one store is shared by every engine, so queries with equal ⌈r⌉
// recycle label work whichever engine serves them; a published label
// set is immutable and the store is mutex-protected.
func NewPool(ds *data.Dataset, opts Options, size int) (*Pool, error) {
	tmpl, err := NewEngine(ds, opts)
	if err != nil {
		return nil, err
	}
	return newPool(tmpl, size), nil
}

// NewPoolOf wraps one existing engine as a pool of one; replacements
// are copies of it.
func NewPoolOf(e *Engine) *Pool { return newPool(e, 1) }

func newPool(tmpl *Engine, size int) *Pool {
	p := &Pool{slots: make(chan *Engine, size)}
	p.tmpl.Store(tmpl)
	for range size {
		p.slots <- tmpl.clone()
	}
	return p
}

// clone returns a separate engine over the same dataset and options. An
// engine is immutable once built, so a copy is as good as a rebuild and
// skips NewEngine's scans of the dataset. The copy shares e's τ^upp
// cache.
func (e *Engine) clone() *Engine {
	c := *e
	return &c
}

// Cap returns the pool size; Idle how many engines are checked in.
func (p *Pool) Cap() int  { return cap(p.slots) }
func (p *Pool) Idle() int { return len(p.slots) }

// Dataset and Options return what the pool's engines are currently
// built from.
func (p *Pool) Dataset() *data.Dataset { return p.tmpl.Load().ext }
func (p *Pool) Options() Options       { return p.tmpl.Load().opts }

// IndexCache reports the τ^upp cache every engine of the pool shares.
// Swap starts a new one.
func (p *Pool) IndexCache() IndexCacheStats { return p.tmpl.Load().IndexCache() }

// ValidateR reports, as an ErrInvalidQuery, an r the pool's engines
// would refuse, so a caller can turn the request away before it queues
// for an engine or fans out to shards.
func (p *Pool) ValidateR(r float64) error { return p.tmpl.Load().validate(r, 1) }

// Acquire checks an engine out. When none is idle it queues: for at
// most wait when wait > 0, until ctx is done when wait == 0, not at
// all when wait < 0. Running out of wait returns ErrPoolBusy, a done
// ctx its error.
func (p *Pool) Acquire(ctx context.Context, wait time.Duration) (*Engine, error) {
	select {
	case e := <-p.slots:
		return e, nil
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
	case e := <-p.slots:
		return e, nil
	case <-expired:
		return nil, ErrPoolBusy
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Release checks a healthy engine back in.
func (p *Pool) Release(e *Engine) { p.slots <- e }

// Quarantine discards an engine whose query panicked and refills its
// slot with a fresh copy of the current template, so whatever
// inconsistency caused the panic cannot leak into later queries and the
// pool never shrinks.
func (p *Pool) Quarantine(*Engine) { p.slots <- p.tmpl.Load().clone() }

// Swap replaces every engine with one over (ds, opts). The new template
// is built first, so a failed build leaves the pool untouched; then
// Swap waits for each checked-out engine to come back, which lets
// in-flight queries finish on the data they started on.
func (p *Pool) Swap(ds *data.Dataset, opts Options) error {
	p.swapMu.Lock()
	defer p.swapMu.Unlock()
	tmpl, err := NewEngine(ds, opts)
	if err != nil {
		return err
	}
	// From here a Quarantine copies the new template; what it puts back
	// during the drain is discarded with the rest.
	p.tmpl.Store(tmpl)
	// swapMu stays held across the drain on purpose: it only serialises
	// swappers (Acquire, Release and Quarantine never take it), and
	// these receives ARE the wait for in-flight queries. A query that
	// panicked is not lost: Quarantine puts an engine back in its slot
	// before the panic continues, so all Cap() receives complete.
	for range p.Cap() {
		<-p.slots
	}
	// No engine is checked out now, so nothing else can send and
	// refilling cannot block.
	for range p.Cap() {
		p.slots <- tmpl.clone()
	}
	return nil
}
