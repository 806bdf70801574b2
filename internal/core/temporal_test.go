package core

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"mio/internal/baseline"
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
