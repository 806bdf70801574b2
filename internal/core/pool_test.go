package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mio/internal/core/labelstore"
	"mio/internal/data"
)

func poolDataset(seed int64) *data.Dataset {
	return data.GenUniform(data.UniformConfig{N: 12, M: 4, FieldSize: 50, Spread: 5, Seed: seed})
}

// TestPool drives core.Pool through its contract, one scenario per row;
// every row must leave the pool whole (Idle() == Cap()). Run under -race.
func TestPool(t *testing.T) {
	const size = 3
	dsA, dsB := poolDataset(1), poolDataset(2)
	bg := context.Background()

	// drain takes every slot, so the pool has nothing idle.
	drain := func(t *testing.T, p *Pool) []*Engine {
		t.Helper()
		held := make([]*Engine, p.Cap())
		for i := range held {
			e, err := p.Acquire(bg, -1)
			if err != nil {
				t.Fatalf("acquire %d of an idle pool: %v", i, err)
			}
			held[i] = e
		}
		return held
	}
	release := func(p *Pool, n int) {
		for range n {
			p.Release()
		}
	}

	for _, tc := range []struct {
		name string
		run  func(t *testing.T, p *Pool)
	}{
		{"negative wait fails at once", func(t *testing.T, p *Pool) {
			held := drain(t, p)
			t0 := time.Now()
			if _, err := p.Acquire(bg, -1); !errors.Is(err, ErrPoolBusy) {
				t.Errorf("err = %v, want ErrPoolBusy", err)
			}
			if d := time.Since(t0); d > time.Second {
				t.Errorf("took %v, want no queueing", d)
			}
			release(p, len(held))
		}},
		{"wait expiry is busy", func(t *testing.T, p *Pool) {
			held := drain(t, p)
			if _, err := p.Acquire(bg, 5*time.Millisecond); !errors.Is(err, ErrPoolBusy) {
				t.Errorf("err = %v, want ErrPoolBusy", err)
			}
			release(p, len(held))
		}},
		{"cancelled ctx wins over the wait", func(t *testing.T, p *Pool) {
			held := drain(t, p)
			ctx, cancel := context.WithCancel(bg)
			cancel()
			for _, wait := range []time.Duration{0, time.Hour} {
				if _, err := p.Acquire(ctx, wait); !errors.Is(err, context.Canceled) {
					t.Errorf("wait=%v: err = %v, want context.Canceled", wait, err)
				}
			}
			release(p, len(held))
		}},
		{"a queued acquire gets the released engine", func(t *testing.T, p *Pool) {
			held := drain(t, p)
			got := make(chan *Engine)
			go func() {
				e, _ := p.Acquire(bg, 0)
				got <- e
			}()
			p.Release()
			if e := <-got; e != held[0] {
				t.Errorf("queued acquire got %p, want the pool's one engine %p", e, held[0])
			}
			release(p, len(held))
		}},
		{"failed swap leaves the pool untouched", func(t *testing.T, p *Pool) {
			if err := p.Swap(&data.Dataset{Name: "empty"}, Options{}); err == nil {
				t.Fatal("swap onto an empty dataset succeeded")
			}
			if p.Dataset() != dsA || p.Idle() != size {
				t.Errorf("after failed swap: dataset %q, idle %d", p.Dataset().Name, p.Idle())
			}
		}},
		{"a swap waits for held slots", func(t *testing.T, p *Pool) {
			held := drain(t, p)
			swapped := make(chan error, 1)
			go func() { swapped <- p.Swap(dsB, Options{Workers: 2}) }()
			// The swap publishes its engine, then blocks in the drain
			// until every held slot is back.
			for p.Dataset() != dsB {
				time.Sleep(time.Millisecond)
			}
			if held[0].Dataset() != dsA {
				t.Errorf("a held engine moved to %q mid-query", held[0].Dataset().Name)
			}
			release(p, len(held)-1)
			select {
			case err := <-swapped:
				t.Fatalf("swap returned (%v) with a slot still held", err)
			case <-time.After(10 * time.Millisecond):
			}
			p.Release()
			if err := <-swapped; err != nil {
				t.Fatal(err)
			}
			e, err := p.Acquire(bg, -1)
			if err != nil {
				t.Fatal(err)
			}
			if e.Dataset() != dsB || e.Options().Workers != 2 {
				t.Errorf("after the swap: engine over %q (workers %d)", e.Dataset().Name, e.Options().Workers)
			}
			p.Release()
		}},
		{"concurrent use never exceeds cap", func(t *testing.T, p *Pool) {
			var out, peak atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						if _, err := p.Acquire(bg, 0); err != nil {
							t.Errorf("acquire: %v", err)
							return
						}
						n := out.Add(1)
						for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
						}
						out.Add(-1)
						p.Release()
					}
				}(g)
			}
			for i, ds := range []*data.Dataset{dsB, dsA, dsB} {
				wg.Add(1)
				go func(i int, ds *data.Dataset) {
					defer wg.Done()
					time.Sleep(time.Duration(i) * time.Millisecond)
					if err := p.Swap(ds, Options{}); err != nil {
						t.Errorf("swap: %v", err)
					}
				}(i, ds)
			}
			wg.Wait()
			if got := peak.Load(); got > size {
				t.Errorf("%d slots were taken at once from a pool of %d", got, size)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPool(dsA, Options{}, size)
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, p)
			if p.Idle() != p.Cap() || p.Cap() != size {
				t.Errorf("pool left with %d of %d slots free (built with %d)", p.Idle(), p.Cap(), size)
			}
		})
	}
}

// TestSharedEngineConcurrentQueries is the premise of Pool: every piece
// of per-query state lives in the query, so one engine answers
// concurrent calls of each entry point exactly as a fresh engine
// answers each call alone. Four goroutines walk one stream of distinct
// (r, k) over three ⌈r⌉ from different offsets, at one and two workers,
// with labels off (work counts compared too) and on (answers only: a
// shared store changes what label input costs). Run under -race.
func TestSharedEngineConcurrentQueries(t *testing.T) {
	ds := testDatasets(t)["neuron"]
	type op struct {
		kind int // RunTopKContext, Bound + Complete, InteractingSet, AllScores
		spec
	}
	var ops []op
	for _, base := range rValues("neuron") {
		for i, d := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
			ops = append(ops, op{kind: len(ops) % 4, spec: spec{R: math.Ceil(base) - d, K: 1 + i%3}})
		}
	}
	run := func(e *Engine, o op, labels bool) (any, error) {
		ctx := context.Background()
		var res *Result
		var err error
		switch o.kind {
		case 0:
			res, err = e.RunTopKContext(ctx, o.R, o.K, false)
		case 1:
			var b *BoundSet
			if b, err = e.Bound(ctx, o.R, o.K, nil); err == nil {
				res, err = b.Complete(ctx, 0)
			}
		case 2:
			return e.InteractingSet(ctx, o.R, o.K)
		default:
			return e.AllScores(ctx, o.R)
		}
		if err != nil {
			return nil, err
		}
		if labels {
			return res.TopK, nil
		}
		return stripVolatile(res), nil
	}
	for _, workers := range []int{1, 2} {
		for _, labels := range []bool{false, true} {
			opts := func() Options {
				o := Options{Workers: workers}
				if labels {
					o.Labels = labelstore.NewStore()
				}
				return o
			}
			want := make([]any, len(ops))
			for i, o := range ops {
				fresh, err := NewEngine(ds, opts())
				if err != nil {
					t.Fatal(err)
				}
				if want[i], err = run(fresh, o, labels); err != nil {
					t.Fatalf("serial op %d %+v: %v", i, o, err)
				}
			}
			shared, err := NewEngine(ds, opts())
			if err != nil {
				t.Fatal(err)
			}
			// Without labels counters are compared too, so that shared
			// engine keeps no score memo (withoutMemo); TestScoreMemoConcurrent
			// runs these entry points concurrently with one.
			if !labels {
				withoutMemo(shared)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for n := range ops {
						i := (n + g*len(ops)/4) % len(ops)
						got, err := run(shared, ops[i], labels)
						if err != nil {
							t.Errorf("w=%d labels=%v op %+v: %v", workers, labels, ops[i], err)
						} else if !reflect.DeepEqual(got, want[i]) {
							t.Errorf("w=%d labels=%v op %+v: shared engine %+v, fresh engine %+v", workers, labels, ops[i], got, want[i])
						}
					}
				}(g)
			}
			wg.Wait()
		}
	}
}
