package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mio/internal/baseline"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/geom"
)

func temporalDataset(tb testing.TB) *data.Dataset {
	tb.Helper()
	base := data.GenTrajectory(data.TrajectoryConfig{
		N: 80, M: 25, Groups: 5, FieldSize: 3000, Speed: 25, FollowStd: 10, Solo: 0.4, Seed: 21,
	})
	ds := data.WithTimestamps(base, 1.0, 40, 22)
	if err := ds.Validate(); err != nil {
		tb.Fatal(err)
	}
	return ds
}

func TestTemporalMatchesOracle(t *testing.T) {
	ds := temporalDataset(t)
	eng, err := NewTemporalEngine(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{20, 50} {
		for _, delta := range []float64{2, 8, 25} {
			oracle := baseline.TemporalNLScores(ds, r, delta)
			res, err := eng.RunTopK(r, delta, 4)
			if err != nil {
				t.Fatalf("r=%g δ=%g: %v", r, delta, err)
			}
			want := baselineScores(baseline.TopKFromScores(oracle, 4))
			got := scoreMultiset(res.TopK)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("r=%g δ=%g: scores %v, oracle %v", r, delta, got, want)
			}
			for _, s := range res.TopK {
				if oracle[s.Obj] != s.Score {
					t.Errorf("r=%g δ=%g: obj %d reported %d, true %d", r, delta, s.Obj, s.Score, oracle[s.Obj])
				}
			}
		}
	}
}

func TestTemporalDeltaZero(t *testing.T) {
	// δ = 0: only points generated at exactly the same instant count
	// (the appendix's special case). The generator stamps points on a
	// shared tick grid, so exact matches exist.
	ds := temporalDataset(t)
	// Snap all timestamps onto integers so exact collisions occur.
	for i := range ds.Objects {
		for j := range ds.Objects[i].Times {
			ds.Objects[i].Times[j] = float64(int(ds.Objects[i].Times[j]))
		}
	}
	eng, _ := NewTemporalEngine(ds, Options{})
	r := 50.0
	oracle := baseline.TemporalNLScores(ds, r, 0)
	res, err := eng.RunTopK(r, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := baselineScores(baseline.TopKFromScores(oracle, 3))
	if got := scoreMultiset(res.TopK); !reflect.DeepEqual(got, want) {
		t.Errorf("δ=0: scores %v, oracle %v", got, want)
	}
}

func TestTemporalLargeDeltaEqualsSpatial(t *testing.T) {
	// With δ spanning the whole time horizon the temporal constraint is
	// vacuous and the answer must match the purely spatial engine.
	ds := temporalDataset(t)
	spatial := &data.Dataset{Name: ds.Name}
	for i := range ds.Objects {
		spatial.Objects = append(spatial.Objects, data.Object{ID: i, Pts: ds.Objects[i].Pts})
	}
	r := 40.0
	se, _ := NewEngine(spatial, Options{})
	sres, _ := se.RunTopK(r, 5)
	te, _ := NewTemporalEngine(ds, Options{})
	tres, err := te.RunTopK(r, 1e9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scoreMultiset(tres.TopK), scoreMultiset(sres.TopK)) {
		t.Errorf("huge δ: temporal %v vs spatial %v", scoreMultiset(tres.TopK), scoreMultiset(sres.TopK))
	}
}

// stamped returns a dataset of one object per point list, every point
// generated at time t.
func stamped(t float64, objects ...[]geom.Point) *data.Dataset {
	ds := &data.Dataset{Name: "stamped"}
	for i, pts := range objects {
		ds.Objects = append(ds.Objects, data.Object{ID: i, Pts: pts, Times: make([]float64, len(pts))})
		for j := range pts {
			ds.Objects[i].Times[j] = t
		}
	}
	return ds
}

// TestTemporalErrors: the temporal engine refuses what NewEngine and
// Engine.validate refuse, through them, plus a bad δ. The Dims, far-r,
// NaN and tiny-δ rows used to be answered with a nil error, the first
// two wrongly (object 0 score 0 both times).
func TestTemporalErrors(t *testing.T) {
	ds := temporalDataset(t)
	eng, err := NewTemporalEngine(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Objects 3 and 4 are 5e-4 apart, everything else at least 10: at
	// r = 1e-3 the small-grid cell coordinates (±8.7e9) leave int32.
	far := stamped(7,
		[]geom.Point{{X: 5e6, Y: 5e6}}, []geom.Point{{X: 5e6 - 10, Y: 5e6}}, []geom.Point{{X: 5e6 - 20, Y: 5e6}},
		[]geom.Point{{X: -5e6, Y: -5e6}}, []geom.Point{{X: -5e6 + 5e-4, Y: -5e6}})
	farEng, err := NewTemporalEngine(far, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, c := range []struct {
		name        string
		eng         *TemporalEngine
		r, delta    float64
		k           int
		wantMessage string
	}{
		{"r=0", eng, 0, 5, 1, "distance threshold"},
		{"r=NaN", eng, nan, 5, 1, "distance threshold"},
		{"r too small for the extent", farEng, 1e-3, 5, 1, "int32"},
		{"delta<0", eng, 5, -1, 1, "temporal threshold"},
		{"delta=NaN", eng, 5, nan, 1, "temporal threshold"},
		{"delta too small for the timestamps", eng, 5, 1e-9, 1, "int32"},
		{"k=0", eng, 5, 5, 0, "k must be"},
	} {
		_, err := c.eng.RunTopK(c.r, c.delta, c.k)
		if !errors.Is(err, ErrInvalidQuery) || !strings.Contains(err.Error(), c.wantMessage) {
			t.Errorf("%s: err = %v, want an ErrInvalidQuery about %q", c.name, err, c.wantMessage)
		}
	}
	// The far dataset at a legal r, and k clamped to n.
	res, err := farEng.RunTopK(0.5, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if want := baseline.TemporalNL(far, 0.5, 5, 1)[0]; res.Best.Obj != 3 || res.Best.Score != 1 || want.Obj != 3 || want.Score != 1 || len(res.TopK) != far.N() {
		t.Errorf("far dataset at r=0.5: best %+v of %d, oracle %+v, want object 3 score 1 of 5", res.Best, len(res.TopK), want)
	}

	noTimes := data.GenUniform(data.UniformConfig{N: 5, M: 3, FieldSize: 10, Spread: 2, Seed: 3})
	if _, err := NewTemporalEngine(noTimes, Options{}); err == nil {
		t.Error("dataset without timestamps accepted")
	}
	if _, err := NewTemporalEngine(&data.Dataset{}, Options{}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewTemporalEngine(ds, Options{Dims: 4}); err == nil {
		t.Error("Dims 4 accepted")
	}
	// Labels were silently ignored; Labeling-2/-3 are not sound under a
	// time constraint, so a store is refused.
	if _, err := NewTemporalEngine(ds, Options{Labels: labelstore.NewStore()}); err == nil || !strings.Contains(err.Error(), "label store") {
		t.Errorf("label store: err = %v, want a refusal naming the label store", err)
	}
	if _, err := NewTemporalEngine(stamped(math.NaN(), []geom.Point{{X: 1}}, []geom.Point{{X: 1.5}}), Options{}); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("NaN timestamp: err = %v, want a refusal", err)
	}

	// Dims 2 on non-planar data (mio_test.go's six objects): r/√2 cells
	// put three non-interacting pairs in one cell each, lift object 0's
	// lower bound to 3 and prune the one true pair {4, 5}.
	w := 1 / math.Sqrt2
	tilted := stamped(0,
		[]geom.Point{geom.Pt(0.01, 0.01, 0.01), geom.Pt(20*w+0.01, 0.01, 0.01), geom.Pt(40*w+0.01, 0.01, 0.01)},
		[]geom.Point{geom.Pt(0.70, 0.70, 0.70)}, []geom.Point{geom.Pt(20*w+0.70, 0.70, 0.70)}, []geom.Point{geom.Pt(40*w+0.70, 0.70, 0.70)},
		[]geom.Point{geom.Pt(100, 100, 100)}, []geom.Point{geom.Pt(100.5, 100, 100)})
	if _, err := NewTemporalEngine(tilted, Options{Dims: 2}); err == nil || !strings.Contains(err.Error(), "planar") {
		t.Errorf("Dims 2 on non-planar data: err = %v, want a refusal naming the planar requirement", err)
	}
	te, err := NewTemporalEngine(tilted, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := te.Run(1, 0); err != nil || res.Best != (Scored{Obj: 4, Score: 1}) {
		t.Errorf("non-planar data, default Dims: best %+v, err %v, want object 4 score 1", res.Best, err)
	}
}

func TestTemporalParallelMatchesSerial(t *testing.T) {
	ds := temporalDataset(t)
	serial, _ := NewTemporalEngine(ds, Options{})
	want, err := serial.RunTopK(50, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		eng, _ := NewTemporalEngine(ds, Options{Workers: workers})
		got, err := eng.RunTopK(50, 8, 4)
		if err != nil {
			t.Fatalf("w=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(scoreMultiset(got.TopK), scoreMultiset(want.TopK)) {
			t.Fatalf("w=%d: %v vs %v", workers, scoreMultiset(got.TopK), scoreMultiset(want.TopK))
		}
	}
	// δ = 0 exercises the interned-timestamp read path under workers.
	for i := range ds.Objects {
		for j := range ds.Objects[i].Times {
			ds.Objects[i].Times[j] = float64(int(ds.Objects[i].Times[j]))
		}
	}
	oracle := baseline.TemporalNLScores(ds, 50, 0)
	eng, _ := NewTemporalEngine(ds, Options{Workers: 3})
	res, err := eng.RunTopK(50, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantScores := baselineScores(baseline.TopKFromScores(oracle, 2))
	if !reflect.DeepEqual(scoreMultiset(res.TopK), wantScores) {
		t.Fatalf("δ=0 parallel: %v vs %v", scoreMultiset(res.TopK), wantScores)
	}
}

// TestTemporalOneBucketStatsMatchSpatial: every point stamped with one
// time and δ = 0 is one bucket with halo 0, the spatial index itself, so
// the temporal engine must do the spatial engine's work count for
// count. A δ > 0 query reports its work too.
func TestTemporalOneBucketStatsMatchSpatial(t *testing.T) {
	base := temporalDataset(t)
	var objs [][]geom.Point
	spatial := &data.Dataset{Name: base.Name}
	for i := range base.Objects {
		objs = append(objs, base.Objects[i].Pts)
		spatial.Objects = append(spatial.Objects, data.Object{ID: i, Pts: base.Objects[i].Pts})
	}
	oneTime := stamped(7, objs...)
	const r, k = 40.0, 3
	for _, workers := range []int{1, 2} {
		se, _ := NewEngine(spatial, Options{Workers: workers})
		want, err := se.RunTopK(r, k)
		if err != nil {
			t.Fatal(err)
		}
		te, _ := NewTemporalEngine(oneTime, Options{Workers: workers})
		got, err := te.RunTopK(r, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		w, g := want.Stats, got.Stats
		for _, c := range []struct {
			name      string
			got, want int
		}{
			{"Candidates", g.Candidates, w.Candidates},
			{"Verified", g.Verified, w.Verified},
			{"DistanceComps", g.DistanceComps, w.DistanceComps},
			{"AdjComputed", g.AdjComputed, w.AdjComputed},
			{"SmallCells", g.SmallCells, w.SmallCells},
			{"LargeCells", g.LargeCells, w.LargeCells},
			{"IndexBytes", g.IndexBytes, w.IndexBytes},
		} {
			if c.got != c.want {
				t.Errorf("Workers %d: temporal %s = %d, spatial %d", workers, c.name, c.got, c.want)
			}
		}
		if !reflect.DeepEqual(got.TopK, want.TopK) {
			t.Errorf("Workers %d: temporal top-%d %v, spatial %v", workers, k, got.TopK, want.TopK)
		}
	}

	eng, _ := NewTemporalEngine(base, Options{})
	res, err := eng.RunTopK(50, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.DistanceComps == 0 || st.AdjComputed == 0 || st.IndexBytes == 0 ||
		st.GridMapping == 0 || st.LowerBounding == 0 || st.UpperBounding == 0 || st.Verification == 0 {
		t.Errorf("δ = 8: stats %+v, want work counts, index bytes and phase times", st)
	}
}

// track is one hand-built object: its points and their generation
// times.
type track struct {
	pts   []geom.Point
	times []float64
}

func tracks(ts ...track) *data.Dataset {
	ds := &data.Dataset{Name: "tracks"}
	for i, tr := range ts {
		ds.Objects = append(ds.Objects, data.Object{ID: i, Pts: tr.pts, Times: tr.times})
	}
	return ds
}

// TestTemporalBucketEdges pins the bucket arithmetic on hand-built
// datasets at r = 1: every point is within r of every other, so each
// score is decided by time alone, and every object is verified (k = n).
func TestTemporalBucketEdges(t *testing.T) {
	at := func(x float64) geom.Point { return geom.Pt(x, 0.5, 0.5) }
	one := func(tm float64) track { return track{[]geom.Point{at(0.5)}, []float64{tm}} }
	down := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	each := func(ts ...float64) *data.Dataset {
		var trs []track
		for _, tm := range ts {
			trs = append(trs, one(tm))
		}
		return tracks(trs...)
	}
	for _, c := range []struct {
		name  string
		delta float64
		ds    *data.Dataset
		want  []int // nil: the oracle is the only reference
	}{
		// Object 1's posting in bucket 0 holds t = 0.1, then 0.9. Probed
		// from object 0 (t = 1.5, bucket 1) its first point is within r
		// but 1.4 apart in time; the kernel resumes and the second point,
		// 0.6 apart, resolves the pair. Object 2's one point is 1.3 from
		// object 0: a miss after a spatial hit.
		{"resume after a hit outside δ", 1, tracks(
			one(1.5),
			track{[]geom.Point{at(0.6), at(0.7)}, []float64{0.1, 0.9}},
			track{[]geom.Point{at(0.55)}, []float64{0.2}}), []int{1, 2, 1}},
		// t = 1 and t = 3 are buckets 0 and 1, exactly δ apart; 3.5 is
		// 2.5 from 1.
		{"|Δt| = δ across adjacent buckets", 2, each(1, 3, 3.5), []int{1, 2, 1}},
		// Buckets -2, -1, -3 and 0: floor, not truncation toward zero.
		{"negative timestamps", 2, each(-3, -1.5, -5, 0.5), []int{2, 2, 1, 1}},
		{"one ulp either side of a boundary, δ = 1", 1, each(down(3), 3, up(3), 2, down(2), 4, up(4)), nil},
		{"one ulp either side of a boundary, δ = 0.1", 0.1, each(down(0.3), 0.3, up(0.3), 0.2, down(0.2), 0.4, up(0.4)), nil},
	} {
		oracle := baseline.TemporalNLScores(c.ds, 1, c.delta)
		if c.want != nil && !reflect.DeepEqual(oracle, c.want) {
			t.Fatalf("%s: oracle %v, the row expects %v", c.name, oracle, c.want)
		}
		for _, workers := range []int{1, 2} {
			eng, err := NewTemporalEngine(c.ds, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.RunTopK(1, c.delta, c.ds.N())
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int, c.ds.N())
			for _, s := range res.TopK {
				got[s.Obj] = s.Score
			}
			if len(res.TopK) != c.ds.N() || !reflect.DeepEqual(got, oracle) {
				t.Errorf("%s, Workers %d: scores %v, oracle %v", c.name, workers, got, oracle)
			}
		}
	}
}

// FuzzTemporalAgainstOracle is the temporal engine's native fuzz target
// (go test -fuzz=FuzzTemporalAgainstOracle -fuzztime=30s): the fuzzer
// steers TestRandomizedTemporalCrossCheck's trajectory generator, r, δ
// (below 0.25 it becomes δ = 0 over timestamps floored to integers, so
// exact matches exist), k, Workers 1 or 2 and Dims, and every execution
// is checked against the brute-force oracle's canonical top-k, objects
// and scores, on the drawn dataset and on a seeded shuffle of it.
func FuzzTemporalAgainstOracle(f *testing.F) {
	f.Add(uint8(30), uint8(10), int64(1), 40.0, 5.0, uint8(2), uint8(0))
	f.Add(uint8(50), uint8(6), int64(7), 80.0, 0.0, uint8(1), uint8(1))
	f.Add(uint8(15), uint8(18), int64(9), 5.0, 20.0, uint8(4), uint8(2))
	f.Add(uint8(63), uint8(3), int64(3), 200.0, 1.5, uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, n, m uint8, seed int64, r, delta float64, k, mode uint8) {
		if !(r > 0 && r <= 500) || !(delta >= 0 && delta <= 100) {
			t.Skip("thresholds out of the meaningful range")
		}
		rng := rand.New(rand.NewSource(seed))
		base := data.GenTrajectory(data.TrajectoryConfig{
			N: 2 + int(n%64), M: 2 + int(m%18),
			Groups: 1 + rng.Intn(4), FieldSize: 300 + rng.Float64()*1500,
			Speed: 2 + rng.Float64()*20, FollowStd: 1 + rng.Float64()*8,
			Solo: rng.Float64() / 2, Seed: rng.Int63(),
		})
		horizon := 10 + rng.Float64()*50
		ds := data.WithTimestamps(base, 0.5+rng.Float64()*2, horizon, rng.Int63())
		if delta < 0.25 {
			delta = 0
			for i := range ds.Objects {
				for j, tm := range ds.Objects[i].Times {
					ds.Objects[i].Times[j] = math.Floor(tm)
				}
			}
		}
		// Trajectories are planar, so Dims 2 is accepted.
		opts := Options{Workers: 1 + int(mode&1)}
		if mode&2 != 0 {
			opts.Dims = 2
		}
		kk := 1 + int(k%5)
		oracle := baseline.TemporalNLScores(ds, r, delta)
		// The drawn dataset, then a seeded shuffle of it, whose answer
		// must be the oracle's renumbered through the shuffle.
		sh, to := shuffled(ds, seed)
		for x, d := range []*data.Dataset{ds, sh} {
			eng, err := NewTemporalEngine(d, opts)
			if err != nil {
				t.Fatalf("NewTemporalEngine: %v", err)
			}
			res, err := eng.RunTopK(r, delta, kk)
			if err != nil {
				t.Fatalf("RunTopK: %v", err)
			}
			scores := oracle
			if x == 1 {
				scores = permuted(oracle, to)
			}
			if want := wantTopK(scores, kk); !reflect.DeepEqual(res.TopK, want) {
				t.Fatalf("opts=%+v r=%g δ=%g shuffled=%v: top-k %v, oracle %v", opts, r, delta, x == 1, res.TopK, want)
			}
		}
	})
}
