package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mio/internal/baseline"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/geom"
)

// TestRandomizedCrossCheck drives the whole engine through randomly
// drawn configurations — dataset shape, threshold, k, worker count,
// strategies, labels on/off, 2-D/3-D — and cross-checks every answer
// against the brute-force oracle. It is the closest thing to a fuzzer
// the deterministic-CI constraint allows.
func TestRandomizedCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		var ds *data.Dataset
		switch rng.Intn(4) {
		case 0:
			ds = data.GenUniform(data.UniformConfig{
				N: 10 + rng.Intn(80), M: 1 + rng.Intn(12),
				FieldSize: 20 + rng.Float64()*200, Spread: rng.Float64() * 20,
				Seed: rng.Int63(),
			})
		case 1:
			ds = data.GenNeuron(data.NeuronConfig{
				N: 5 + rng.Intn(25), M: 10 + rng.Intn(80),
				Clusters: 1 + rng.Intn(4), FieldSize: 50 + rng.Float64()*150,
				ClusterStd: 5 + rng.Float64()*20, StepLen: 0.5 + rng.Float64()*2,
				Branches: 1 + rng.Intn(5), Seed: rng.Int63(),
			})
		case 2:
			ds = data.GenTrajectory(data.TrajectoryConfig{
				N: 10 + rng.Intn(60), M: 5 + rng.Intn(25),
				Groups: 1 + rng.Intn(5), FieldSize: 200 + rng.Float64()*2000,
				Speed: 1 + rng.Float64()*20, FollowStd: 1 + rng.Float64()*10,
				Solo: rng.Float64(), Seed: rng.Int63(),
			})
		default:
			ds = data.GenPowerLaw(data.PowerLawConfig{
				N: 20 + rng.Intn(200), M: 1 + rng.Intn(8),
				Alpha: 1 + rng.Float64(), Clusters: 2 + rng.Intn(20),
				FieldSize: 100 + rng.Float64()*2000, HubStd: 2 + rng.Float64()*15,
				Seed: rng.Int63(),
			})
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("trial %d: generator produced invalid data: %v", trial, err)
		}
		ext := ds.Bounds().Extent()
		maxExt := ext.X
		if ext.Y > maxExt {
			maxExt = ext.Y
		}
		if ext.Z > maxExt {
			maxExt = ext.Z
		}
		r := 0.01 + rng.Float64()*maxExt/4
		k := 1 + rng.Intn(6)

		opts := Options{}
		if rng.Intn(2) == 1 {
			opts.Workers = 2 + rng.Intn(4)
			opts.LB = LBStrategy(rng.Intn(2))
			opts.UB = UBStrategy(rng.Intn(2))
		}
		if rng.Intn(2) == 1 {
			opts.Dims = 2 + rng.Intn(2)
			if opts.Dims == 2 && !planar(ds) {
				opts.Dims = 3
			}
		}
		var store *labelstore.Store
		if rng.Intn(2) == 1 {
			store = labelstore.NewStore()
			opts.Labels = store
		}

		oracle := baseline.NLScores(ds, r)
		want := baseline.TopKFromScores(oracle, k)

		eng, err := NewEngine(ds, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Two passes: with a store the second consumes the first's labels.
		for pass := 0; pass < 2; pass++ {
			res, err := eng.RunTopK(r, k)
			if err != nil {
				t.Fatalf("trial %d pass %d (opts %+v): %v", trial, pass, opts, err)
			}
			got := scoreMultiset(res.TopK)
			wantScores := baselineScores(want)
			if !reflect.DeepEqual(got, wantScores) {
				t.Fatalf("trial %d pass %d (n=%d r=%g k=%d opts %+v): scores %v, oracle %v",
					trial, pass, ds.N(), r, k, opts, got, wantScores)
			}
			for _, s := range res.TopK {
				if oracle[s.Obj] != s.Score {
					t.Fatalf("trial %d pass %d: obj %d reported %d, true %d",
						trial, pass, s.Obj, s.Score, oracle[s.Obj])
				}
			}
			if store == nil {
				break
			}
		}
	}
}

func planar(ds *data.Dataset) bool {
	for i := range ds.Objects {
		for _, p := range ds.Objects[i].Pts {
			if p.Z != 0 {
				return false
			}
		}
	}
	return true
}

// TestRandomizedTemporalCrossCheck does the same for the temporal
// engine.
func TestRandomizedTemporalCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	trials := 15
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		base := data.GenTrajectory(data.TrajectoryConfig{
			N: 15 + rng.Intn(50), M: 5 + rng.Intn(15),
			Groups: 1 + rng.Intn(4), FieldSize: 300 + rng.Float64()*1500,
			Speed: 2 + rng.Float64()*20, FollowStd: 1 + rng.Float64()*8,
			Solo: rng.Float64() / 2, Seed: rng.Int63(),
		})
		horizon := 10 + rng.Float64()*50
		ds := data.WithTimestamps(base, 0.5+rng.Float64()*2, horizon, rng.Int63())
		ext := ds.Bounds().Extent()
		r := 1 + rng.Float64()*(ext.X+ext.Y)/8
		delta := rng.Float64() * horizon / 2
		k := 1 + rng.Intn(4)

		oracle := baseline.TemporalNLScores(ds, r, delta)
		want := baselineScores(baseline.TopKFromScores(oracle, k))
		// Trajectories are planar, so Dims 2 is on the accepted side of
		// NewEngine's rule.
		for _, opts := range []Options{{}, {Workers: 4}, {Dims: 2}} {
			eng, err := NewTemporalEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunTopK(r, delta, k)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if got := scoreMultiset(res.TopK); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (r=%g δ=%g k=%d, %+v): %v vs %v", trial, r, delta, k, opts, got, want)
			}
		}
	}
}

// TestDegenerateGeometry exercises coincident points, collinear
// objects, single-point objects and identical objects.
func TestDegenerateGeometry(t *testing.T) {
	pts := func(ps ...geom.Point) []geom.Point { return ps }
	ds := &data.Dataset{Objects: []data.Object{
		{ID: 0, Pts: pts(geom.Pt(0, 0, 0), geom.Pt(0, 0, 0), geom.Pt(0, 0, 0))}, // coincident
		{ID: 1, Pts: pts(geom.Pt(0, 0, 0))},                                     // identical location
		{ID: 2, Pts: pts(geom.Pt(1, 0, 0), geom.Pt(2, 0, 0), geom.Pt(3, 0, 0))}, // collinear
		{ID: 3, Pts: pts(geom.Pt(-4, 0, 0))},
		{ID: 4, Pts: pts(geom.Pt(0, 0, 0), geom.Pt(0, 0, 0))}, // duplicate of 0
	}}
	for _, r := range []float64{0.5, 1, 1.5, 4, 100} {
		oracle := baseline.NLScores(ds, r)
		for _, workers := range []int{1, 3} {
			eng, _ := NewEngine(ds, Options{Workers: workers})
			res, err := eng.RunTopK(r, 5)
			if err != nil {
				t.Fatalf("r=%g w=%d: %v", r, workers, err)
			}
			for _, s := range res.TopK {
				if oracle[s.Obj] != s.Score {
					t.Fatalf("r=%g w=%d obj %d: %d vs %d", r, workers, s.Obj, s.Score, oracle[s.Obj])
				}
			}
		}
	}
}

// TestNegativeCoordinates verifies grid keying handles points on both
// sides of the origin (floor semantics at cell boundaries).
func TestNegativeCoordinates(t *testing.T) {
	ds := &data.Dataset{Objects: []data.Object{
		{ID: 0, Pts: []geom.Point{geom.Pt(-0.5, -0.5, -0.5), geom.Pt(0.5, 0.5, 0.5)}},
		{ID: 1, Pts: []geom.Point{geom.Pt(-1.2, -0.4, 0)}},
		{ID: 2, Pts: []geom.Point{geom.Pt(10, -10, 10)}},
	}}
	for _, r := range []float64{0.7, 1.1, 3, 30} {
		oracle := baseline.NLScores(ds, r)
		eng, _ := NewEngine(ds, Options{})
		res, _ := eng.RunTopK(r, 3)
		for _, s := range res.TopK {
			if oracle[s.Obj] != s.Score {
				t.Fatalf("r=%g obj %d: %d vs %d", r, s.Obj, s.Score, oracle[s.Obj])
			}
		}
	}
}

// TestFractionalThresholds exercises r < 1, where ⌈r⌉ = 1 regardless
// of r and the large grid is shared across very different small grids.
func TestFractionalThresholds(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 60, M: 6, FieldSize: 30, Spread: 2, Seed: 47})
	store := labelstore.NewStore()
	eng, _ := NewEngine(ds, Options{Labels: store})
	for _, r := range []float64{0.2, 0.45, 0.7, 0.95} {
		oracle := baseline.NLScores(ds, r)
		best := 0
		for _, s := range oracle {
			if s > best {
				best = s
			}
		}
		res, err := eng.Run(r)
		if err != nil {
			t.Fatalf("r=%g: %v", r, err)
		}
		if res.Best.Score != best {
			t.Fatalf("r=%g: best %d, oracle %d (labels=%v)", r, res.Best.Score, best, res.Stats.UsedLabels)
		}
	}
	if !store.Has(1) {
		t.Fatal("no labels for ⌈r⌉=1")
	}
}

// FuzzEngineAgainstOracle is the native fuzz target CI's smoke stage
// drives (go test -fuzz=FuzzEngineAgainstOracle -fuzztime=30s): the
// fuzzer steers dataset shape, threshold, k and worker count, and
// every execution cross-checks the full pipeline's top-k, objects and
// scores, against the brute-force oracle's canonical one. A seeded
// shuffle of the drawn dataset runs the same queries on an engine of
// its own and must give the same answer, renumbered through the
// shuffle. strat bits 1 and 2 pick the parallel strategies;
// bits 4 and 8 add a label store: the first run collects at r, bit 4
// then consumes at the same r, bit 8 at an r′ with ⌈r′⌉ = ⌈r⌉. Bit 16
// is the warm index: each engine first answers another r with the same
// ⌈r⌉, so a label-free run of the fuzzed r hits the τ^upp cache and its
// warm grid, and every answer, the warm-up's too, is the oracle's. The
// seeds cover the serial engine, both parallel partitioning strategy
// combinations, a sub-cell-width threshold, both label runs and warm
// runs with and without labels.
func FuzzEngineAgainstOracle(f *testing.F) {
	f.Add(uint8(40), uint8(6), int64(1), 4.0, uint8(1), uint8(0), uint8(0))
	f.Add(uint8(20), uint8(3), int64(7), 2.5, uint8(3), uint8(4), uint8(1))
	f.Add(uint8(63), uint8(7), int64(9), 0.7, uint8(2), uint8(3), uint8(2))
	f.Add(uint8(8), uint8(1), int64(5), 12.0, uint8(5), uint8(2), uint8(3))
	f.Add(uint8(50), uint8(5), int64(11), 5.5, uint8(4), uint8(0), uint8(4))
	f.Add(uint8(45), uint8(6), int64(13), 3.0, uint8(2), uint8(2), uint8(12))
	f.Add(uint8(60), uint8(5), int64(17), 4.5, uint8(2), uint8(0), uint8(16))
	f.Add(uint8(33), uint8(4), int64(19), 7.0, uint8(3), uint8(3), uint8(17))
	f.Add(uint8(28), uint8(6), int64(23), 2.2, uint8(1), uint8(2), uint8(20))
	f.Fuzz(func(t *testing.T, n, m uint8, seed int64, r float64, k, workers, strat uint8) {
		if r <= 0 || r != r || r > 100 {
			t.Skip("threshold out of the meaningful range")
		}
		ds := data.GenUniform(data.UniformConfig{
			N: int(n%64) + 2, M: int(m%8) + 1,
			FieldSize: 60, Spread: 6, Seed: seed,
		})
		opts := Options{Workers: int(workers % 6)}
		if strat&1 != 0 {
			opts.LB = LBHashP
		}
		if strat&2 != 0 {
			opts.UB = UBGreedyD
		}
		rs := []float64{r}
		if strat&(4|8) != 0 {
			opts.Labels = labelstore.NewStore()
		}
		if strat&4 != 0 {
			rs = append(rs, r)
		}
		if strat&8 != 0 {
			// Between r and ⌈r⌉, or just below an integral r.
			r2 := (r + math.Ceil(r)) / 2
			if r2 == r {
				r2 = r - 0.25
			}
			rs = append(rs, r2)
		}
		sh, to := shuffled(ds, seed)
		engines := [2]*Engine{}
		for x, d := range []*data.Dataset{ds, sh} {
			o := opts
			if opts.Labels != nil {
				o.Labels = labelstore.NewStore()
			}
			eng, err := NewEngine(d, o)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			engines[x] = eng
		}
		if err := engines[0].validate(r, 1); err != nil {
			// A tiny r whose cell keys would leave int32 is refused by
			// contract (TestValidateRejectsInt32KeyOverflow pins that);
			// every r of rs is at least min(r, 0.75).
			t.Skip(err)
		}
		kk := int(k%5) + 1
		if strat&16 != 0 {
			// Below r within its ⌈r⌉, or above an r just past an integer.
			warm := (r + math.Ceil(r) - 1) / 2
			if warm == r || engines[0].validate(warm, 1) != nil {
				warm = (r + math.Ceil(r)) / 2
			}
			rs = append([]float64{warm}, rs...)
		}
		for _, r := range rs {
			oracle := baseline.NLScores(ds, r)
			for x, eng := range engines {
				res, err := eng.RunTopK(r, kk)
				if err != nil {
					t.Fatalf("RunTopK: %v", err)
				}
				scores := oracle
				if x == 1 {
					scores = permuted(oracle, to)
				}
				if want := wantTopK(scores, kk); !reflect.DeepEqual(res.TopK, want) {
					t.Fatalf("opts=%+v r=%g labels=%v shuffled=%v: top-k %v, oracle %v",
						opts, r, res.Stats.UsedLabels, x == 1, res.TopK, want)
				}
			}
		}
	})
}
