package mio

// One benchmark family per table/figure of the paper's evaluation (§V).
// These are the testing.B counterparts of cmd/miobench: small fixed
// workloads whose relative numbers show the paper's shapes (BIGrid ≫
// SG ≫ NL; labels accelerate re-queries; top-k grows mildly with k;
// cost-based partitioning beats naive partitioning). Run with
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for paper-vs-measured discussion.

import (
	"sync"
	"testing"

	"mio/internal/baseline"
	"mio/internal/core"
	"mio/internal/core/labelstore"
	"mio/internal/data"
)

var benchSets = struct {
	once sync.Once
	m    map[string]*data.Dataset
}{}

// benchDatasets returns small fixed-size versions of the stand-ins.
func benchDatasets() map[string]*data.Dataset {
	benchSets.once.Do(func() {
		benchSets.m = map[string]*data.Dataset{
			"Neuron": data.GenNeuron(data.NeuronConfig{
				N: 60, M: 300, Clusters: 5, FieldSize: 400, ClusterStd: 30, StepLen: 1.5, Branches: 5, Seed: 51,
			}),
			"Bird": data.GenTrajectory(data.TrajectoryConfig{
				N: 1200, M: 30, Groups: 12, FieldSize: 9000, Speed: 28, FollowStd: 11, Solo: 0.35, Seed: 52,
			}),
			"Syn": data.GenPowerLaw(data.PowerLawConfig{
				N: 4000, M: 8, Alpha: 1.6, Clusters: 120, FieldSize: 40000, HubStd: 7, Seed: 53,
			}),
		}
	})
	return benchSets.m
}

func benchEngine(b *testing.B, ds *data.Dataset, opts core.Options) *core.Engine {
	b.Helper()
	e, err := core.NewEngine(ds, opts)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchCold times b.N runs of query, each on a fresh engine built with
// the timer stopped. An engine reused at a fixed r answers upper
// bounding from its τ^upp cache; the paper's figures time the online
// query, which builds everything.
func benchCold(b *testing.B, ds *data.Dataset, opts core.Options, query func(e *core.Engine) (*core.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEngine(b, ds, opts)
		b.StartTimer()
		if _, err := query(e); err != nil {
			b.Fatal(err)
		}
	}
}

// runAt returns a benchCold query that runs Run(r).
func runAt(r float64) func(e *core.Engine) (*core.Result, error) {
	return func(e *core.Engine) (*core.Result, error) { return e.Run(r) }
}

// BenchmarkFig5Time covers Fig. 5(a)-(e): runtime of each algorithm at
// r = 4 on each dataset (NL only where it is feasible).
func BenchmarkFig5Time(b *testing.B) {
	const r = 4.0
	for name, ds := range benchDatasets() {
		ds := ds
		if name == "Neuron" { // NL is quadratic; only the smallest set
			b.Run(name+"/NL", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					baseline.NL(ds, r, 1)
				}
			})
		}
		b.Run(name+"/SG", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.SG(ds, r, 1)
			}
		})
		b.Run(name+"/BIGrid", func(b *testing.B) {
			benchCold(b, ds, core.Options{}, runAt(r))
		})
		b.Run(name+"/BIGrid-label", func(b *testing.B) {
			store := labelstore.NewStore()
			e := benchEngine(b, ds, core.Options{Labels: store})
			if _, err := e.Run(r); err != nil { // prime labels
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Mem covers Fig. 5(f)-(j): it reports index bytes as
// custom metrics instead of time.
func BenchmarkFig5Mem(b *testing.B) {
	const r = 4.0
	for name, ds := range benchDatasets() {
		ds := ds
		b.Run(name, func(b *testing.B) {
			var sgBytes, bgBytes int
			for i := 0; i < b.N; i++ {
				sgBytes = baseline.BuildSG(ds, r).SizeBytes()
				e := benchEngine(b, ds, core.Options{})
				res, err := e.Run(r)
				if err != nil {
					b.Fatal(err)
				}
				bgBytes = res.Stats.IndexBytes
			}
			b.ReportMetric(float64(sgBytes), "SG-bytes")
			b.ReportMetric(float64(bgBytes), "BIGrid-bytes")
		})
	}
}

// BenchmarkTable2 covers Table II: the labeled re-query whose phase
// breakdown the table reports (the benchmark measures the end-to-end
// labeled run; per-phase numbers come from cmd/miobench).
func BenchmarkTable2(b *testing.B) {
	const r = 4.0
	ds := benchDatasets()["Bird"]
	store := labelstore.NewStore()
	e := benchEngine(b, ds, core.Options{Labels: store})
	if _, err := e.Run(r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(r)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stats.UsedLabels {
			b.Fatal("labels not used")
		}
	}
}

// BenchmarkFig6 covers the scalability test: BIGrid runtime at growing
// sampling rates of the Syn stand-in.
func BenchmarkFig6(b *testing.B) {
	const r = 4.0
	full := benchDatasets()["Syn"]
	for _, rate := range []float64{0.25, 0.5, 1.0} {
		ds := full.Sample(rate, 61)
		b.Run(rateName(rate), func(b *testing.B) {
			benchCold(b, ds, core.Options{}, runAt(r))
		})
	}
}

func rateName(rate float64) string {
	switch rate {
	case 0.25:
		return "s=0.25"
	case 0.5:
		return "s=0.50"
	default:
		return "s=1.00"
	}
}

// BenchmarkFig7 covers the top-k variant: runtime vs k.
func BenchmarkFig7(b *testing.B) {
	const r = 4.0
	ds := benchDatasets()["Bird"]
	for _, k := range []int{1, 10, 50} {
		k := k
		b.Run(kName(k), func(b *testing.B) {
			benchCold(b, ds, core.Options{}, func(e *core.Engine) (*core.Result, error) { return e.RunTopK(r, k) })
		})
	}
}

func kName(k int) string {
	switch k {
	case 1:
		return "k=1"
	case 10:
		return "k=10"
	default:
		return "k=50"
	}
}

// BenchmarkFig8 covers the parallel partitioning strategies at two
// workers (single-CPU hosts still exercise the code paths; real
// speedups need real cores).
func BenchmarkFig8(b *testing.B) {
	const r = 4.0
	ds := benchDatasets()["Neuron"]
	cases := []struct {
		name string
		opts core.Options
	}{
		{"LB-greedy-d", core.Options{Workers: 2, LB: core.LBGreedyD}},
		{"LB-hash-p", core.Options{Workers: 2, LB: core.LBHashP}},
		{"UB-greedy-p", core.Options{Workers: 2, UB: core.UBGreedyP}},
		{"UB-greedy-d", core.Options{Workers: 2, UB: core.UBGreedyD}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			benchCold(b, ds, c.opts, runAt(r))
		})
	}
}

// BenchmarkFig9 covers the parallelised algorithms end to end.
func BenchmarkFig9(b *testing.B) {
	const (
		r = 4.0
		t = 2
	)
	ds := benchDatasets()["Bird"]
	b.Run("NL-parallel", func(b *testing.B) {
		small := benchDatasets()["Neuron"]
		for i := 0; i < b.N; i++ {
			baseline.NLParallel(small, r, 1, t)
		}
	})
	b.Run("SG-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.SGParallel(ds, r, 1, t)
		}
	})
	b.Run("BIGrid-parallel", func(b *testing.B) {
		benchCold(b, ds, core.Options{Workers: t}, runAt(r))
	})
}

// BenchmarkTable3 covers the speedup table's ingredients: BIGrid at 1,
// 2 and 4 workers on the same dataset.
func BenchmarkTable3(b *testing.B) {
	const r = 4.0
	ds := benchDatasets()["Neuron"]
	for _, t := range []int{1, 2, 4} {
		t := t
		b.Run(tName(t), func(b *testing.B) {
			benchCold(b, ds, core.Options{Workers: t}, runAt(r))
		})
	}
}

func tName(t int) string {
	switch t {
	case 1:
		return "t=1"
	case 2:
		return "t=2"
	default:
		return "t=4"
	}
}

// BenchmarkAppendixA is the design-choice ablation: per-object
// accumulation via compressed-OR-into-scratch (what the engine does)
// vs compressed-to-compressed merges (the naive alternative), plus
// dense bitsets with full re-zeroing. It justifies both the compressed
// cell bitsets and the epoch-reset scratch accumulator.
func BenchmarkAppendixA(b *testing.B) {
	ds := benchDatasets()["Syn"]
	const r = 4.0
	e := benchEngine(b, ds, core.Options{})
	res, err := e.Run(r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("engine-baseline", func(b *testing.B) { benchCold(b, ds, core.Options{}, runAt(r)) })
	b.Run("metrics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = res
		}
		b.ReportMetric(float64(res.Stats.SmallGridBytes), "small-idrun-bytes")
		b.ReportMetric(float64(res.Stats.SmallGridUncompressedBytes), "small-dense-bytes")
	})
}
