package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"mio/internal/baseline"
	"mio/internal/data"
	"mio/internal/geom"
)

// TestValidateRejectsInt32KeyOverflow: grid.KeyFor casts floor(p/width)
// to int32, so coordinates near 1e9 with r=0.1 (small-grid width
// 0.058, cell coordinate 1.7e10) used to wrap silently and answer from
// aliased cells. Every entry point must refuse the pair instead, and
// keep answering radii whose keys fit.
func TestValidateRejectsInt32KeyOverflow(t *testing.T) {
	ds := &data.Dataset{Name: "far"}
	for i := 0; i < 4; i++ {
		x := 1e9 + float64(i)*0.05
		ds.Objects = append(ds.Objects, data.Object{ID: i, Pts: []geom.Point{{X: x, Y: -1e9, Z: 3}, {X: x + 0.01, Y: -1e9, Z: 3}}})
	}
	eng, err := NewEngine(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const tiny, fine = 0.1, 5.0

	wantErr := func(where string, err error) {
		t.Helper()
		if !errors.Is(err, ErrInvalidQuery) || !strings.Contains(err.Error(), "int32") {
			t.Errorf("%s at r=%g: err = %v, want an ErrInvalidQuery about the int32 cell-key range", where, tiny, err)
		}
	}
	_, err = eng.RunTopK(tiny, 1)
	wantErr("RunTopK", err)
	_, err = eng.Bound(ctx, tiny, 1, nil)
	wantErr("Bound", err)
	_, err = eng.AllScores(context.Background(), tiny)
	wantErr("AllScores", err)
	wantErr("Pool.ValidateR", NewPoolOf(eng).ValidateR(tiny))
	teng, err := NewTemporalEngine(data.WithTimestamps(ds, 1, 10, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = teng.RunTopK(tiny, 100, 1)
	wantErr("TemporalEngine.RunTopK", err)

	if err := NewPoolOf(eng).ValidateR(fine); err != nil {
		t.Errorf("Pool.ValidateR at r=%g: %v", fine, err)
	}
	res, err := eng.RunTopK(fine, 1)
	if err != nil {
		t.Fatalf("RunTopK at r=%g: %v", fine, err)
	}
	if res.Best.Score != 3 {
		t.Errorf("r=%g: best score %d, want 3 (all four objects within 0.2)", fine, res.Best.Score)
	}
	if res, err := teng.RunTopK(fine, 100, 1); err != nil || res.Best.Score != 3 {
		t.Errorf("TemporalEngine.RunTopK at r=%g: %+v, %v, want score 3", fine, res, err)
	}
}

// TestFullKeyRangeMatchesNL: the sort keeps all 96 key bits, so a
// dataset at the far end of the accepted domain — planar, |coord| ≈
// 1e9, r = 1: small-grid cell coordinates ±1.7e9 of int32's ±2.1e9, on
// both sides of zero — is answered as the nested loop answers it, at
// both dimensionalities and worker counts.
func TestFullKeyRangeMatchesNL(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ds := &data.Dataset{Name: "corners"}
	for i := 0; i < 80; i++ {
		// Four flocks, one per quadrant corner.
		x, y := 1e9-float64(rng.Intn(12)), 1e9-float64(rng.Intn(12))
		if i&1 != 0 {
			x = -x
		}
		if i&2 != 0 {
			y = -y
		}
		var pts []geom.Point
		for j := 0; j < 6; j++ {
			pts = append(pts, geom.Pt(x+rng.Float64()*2, y+rng.Float64()*2, 0))
		}
		ds.Objects = append(ds.Objects, data.Object{ID: i, Pts: pts})
	}
	want := baseline.NL(ds, 1, 10)
	if want[0].Score == 0 {
		t.Fatal("setup: nothing interacts at r=1")
	}
	for _, opts := range []Options{{}, {Dims: 2}, {Workers: 2}} {
		eng, err := NewEngine(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.RunTopK(1, 10)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		for i, s := range res.TopK {
			if s.Obj != want[i].Obj || s.Score != want[i].Score {
				t.Fatalf("%+v: top-%d = %+v, NL says %+v", opts, i+1, s, want[i])
			}
		}
	}
}

// TestNewEngineRefusesTooManyPoints: the grids number points with
// int32, so a dataset past math.MaxInt32 points would wrap silently.
// 2 048 objects share one 2²⁰-point slice — 2³¹ points in 24 MiB — and
// both constructors must refuse them before scanning a point.
func TestNewEngineRefusesTooManyPoints(t *testing.T) {
	pts := make([]geom.Point, 1<<20)
	ds := &data.Dataset{Name: "huge", Objects: make([]data.Object, 2048)}
	for i := range ds.Objects {
		ds.Objects[i] = data.Object{ID: i, Pts: pts}
	}
	if _, err := NewEngine(ds, Options{}); !errors.Is(err, ErrTooManyPoints) {
		t.Errorf("NewEngine over %d points: err = %v, want ErrTooManyPoints", ds.TotalPoints(), err)
	}
	if _, err := NewTemporalEngine(ds, Options{}); !errors.Is(err, ErrTooManyPoints) {
		t.Errorf("NewTemporalEngine over %d points: err = %v, want ErrTooManyPoints", ds.TotalPoints(), err)
	}
}
