package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

	// drain checks every engine out, so the pool has nothing idle.
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
	release := func(p *Pool, held []*Engine) {
		for _, e := range held {
			p.Release(e)
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
			release(p, held)
		}},
		{"wait expiry is busy", func(t *testing.T, p *Pool) {
			held := drain(t, p)
			if _, err := p.Acquire(bg, 5*time.Millisecond); !errors.Is(err, ErrPoolBusy) {
				t.Errorf("err = %v, want ErrPoolBusy", err)
			}
			release(p, held)
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
			release(p, held)
		}},
		{"a queued acquire gets the released engine", func(t *testing.T, p *Pool) {
			held := drain(t, p)
			got := make(chan *Engine)
			go func() {
				e, _ := p.Acquire(bg, 0)
				got <- e
			}()
			p.Release(held[0])
			if e := <-got; e != held[0] {
				t.Errorf("queued acquire got %p, want the released %p", e, held[0])
			}
			release(p, held)
		}},
		{"quarantine refills with a fresh engine", func(t *testing.T, p *Pool) {
			held := drain(t, p)
			p.Quarantine(held[0])
			fresh, err := p.Acquire(bg, -1)
			if err != nil {
				t.Fatal(err)
			}
			if fresh == held[0] || fresh.Dataset() != dsA {
				t.Errorf("slot refilled with %p over %q, want a new engine over dsA", fresh, fresh.Dataset().Name)
			}
			held[0] = fresh
			release(p, held)
		}},
		{"failed swap leaves the pool untouched", func(t *testing.T, p *Pool) {
			if err := p.Swap(&data.Dataset{Name: "empty"}, Options{}); err == nil {
				t.Fatal("swap onto an empty dataset succeeded")
			}
			if p.Dataset() != dsA || p.Idle() != size {
				t.Errorf("after failed swap: dataset %q, idle %d", p.Dataset().Name, p.Idle())
			}
		}},
		{"quarantine racing a swap refills from the new template", func(t *testing.T, p *Pool) {
			held := drain(t, p)
			swapped := make(chan error, 1)
			go func() { swapped <- p.Swap(dsB, Options{Workers: 2}) }()
			// The swap publishes its template, then blocks in the drain
			// until every held engine is back.
			for p.Dataset() != dsB {
				time.Sleep(time.Millisecond)
			}
			select {
			case err := <-swapped:
				t.Fatalf("swap returned (%v) with every engine checked out", err)
			default:
			}
			p.Quarantine(held[0])
			release(p, held[1:])
			if err := <-swapped; err != nil {
				t.Fatal(err)
			}
			for _, e := range drain(t, p) {
				if e.Dataset() != dsB || e.Options().Workers != 2 {
					t.Errorf("engine over %q (workers %d) survived the swap", e.Dataset().Name, e.Options().Workers)
				}
				p.Release(e)
			}
		}},
		{"concurrent use never exceeds cap", func(t *testing.T, p *Pool) {
			var out, peak atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						e, err := p.Acquire(bg, 0)
						if err != nil {
							t.Errorf("acquire: %v", err)
							return
						}
						n := out.Add(1)
						for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
						}
						out.Add(-1)
						if (g+i)%7 == 0 {
							p.Quarantine(e)
						} else {
							p.Release(e)
						}
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
				t.Errorf("%d engines were checked out at once from a pool of %d", got, size)
			}
			want := p.Dataset()
			for _, e := range drain(t, p) {
				if e.Dataset() != want {
					t.Errorf("idle engine over %q, template says %q", e.Dataset().Name, want.Name)
				}
				p.Release(e)
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
				t.Errorf("pool left with %d of %d engines idle (built with %d)", p.Idle(), p.Cap(), size)
			}
		})
	}
}
