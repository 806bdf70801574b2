package batch

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mio/internal/core"
	"mio/internal/data"
)

// BenchmarkBatchEpoch measures one full epoch under the workload the
// paper motivates: 256 concurrent monitoring clients whose thresholds
// are Zipf-skewed over a few radii (every variant of a base threshold
// keeps its ⌈r⌉) and whose k cycles. Each iteration submits the whole
// wave and waits for the slowest answer, so ns/op is the closed-loop
// epoch latency including gather, grouping, the shared group runs and
// outcome fan-out.
func BenchmarkBatchEpoch(b *testing.B) {
	ds := data.GenUniform(data.UniformConfig{N: 240, M: 8, FieldSize: 40, Spread: 3, Seed: 11})
	eng, err := core.NewEngine(ds, core.Options{})
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}

	const members = 256
	type rk struct {
		r float64
		k int
	}
	// Zipf over base radii (few popular, long tail), each split into a
	// handful of variants within (⌈r⌉−1, r]: exact thresholds repeat and
	// ceilings collide, so a wave exercises every sharing tier — shared
	// builds per ⌈r⌉, shared lower bounds per r, shared results per
	// (r, k).
	base := []float64{3, 4, 5, 6}
	const variants = 4
	rng := rand.New(rand.NewSource(99))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(base)-1))
	specs := make([]rk, members)
	for i := range specs {
		r := base[zipf.Uint64()]
		step := (r - (math.Ceil(r) - 1)) * 0.5 / variants
		r -= float64(rng.Intn(variants)) * step
		specs[i] = rk{r: r, k: 1 + i%4}
	}

	be, err := New(Config{
		Window:   time.Millisecond,
		MaxBatch: members,
		Run: func(gs []core.GroupSpec) ([]core.GroupOutcome, core.GroupReport, error) {
			outs, rep := eng.RunGroup(context.Background(), gs)
			return outs, rep, nil
		},
	})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer be.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, sp := range specs {
			wg.Add(1)
			go func(sp rk) {
				defer wg.Done()
				if _, err := be.Submit(context.Background(), sp.r, sp.k, false); err != nil {
					b.Error(err)
				}
			}(sp)
		}
		wg.Wait()
	}
	b.StopTimer()

	st := be.Stats(false)
	b.ReportMetric(float64(st.Plans)/float64(st.Epochs), "plans/epoch")
	b.ReportMetric(float64(st.SharedWork)/float64(st.Epochs), "shared/epoch")
}
