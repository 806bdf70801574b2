package mio

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func testDataset(tb testing.TB) *Dataset {
	tb.Helper()
	cfg := TrajectoryConfig{N: 150, M: 25, Groups: 6, FieldSize: 4000, Speed: 25, FollowStd: 10, Solo: 0.4, Seed: 31}
	ds := GenerateTrajectory(cfg)
	if err := ds.Validate(); err != nil {
		tb.Fatal(err)
	}
	return ds
}

func scores(s []Scored) []int {
	out := make([]int, len(s))
	for i, e := range s {
		out[i] = e.Score
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ds := testDataset(t)
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Score <= 0 {
		t.Fatalf("best = %+v; flock data should interact", res.Best)
	}
	topk, err := eng.QueryTopK(40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(topk.TopK) != 5 || topk.TopK[0].Score != res.Best.Score {
		t.Fatalf("topk = %v", topk.TopK)
	}
	for i := 1; i < len(topk.TopK); i++ {
		if topk.TopK[i].Score > topk.TopK[i-1].Score {
			t.Fatal("topk not sorted")
		}
	}
	if eng.Dataset() != ds {
		t.Fatal("Dataset accessor")
	}
}

func TestPublicAPIOptionsCombine(t *testing.T) {
	ds := testDataset(t)
	serial, _ := NewEngine(ds)
	want, _ := serial.QueryTopK(40, 3)

	eng, err := NewEngine(ds,
		WithWorkers(4),
		With2D(),
		WithLabels(),
		WithLBStrategy(LBHashP),
		WithUBStrategy(UBGreedyD),
	)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := eng.QueryTopK(40, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scores(got.TopK), scores(want.TopK)) {
			t.Fatalf("pass %d: %v != %v", pass, scores(got.TopK), scores(want.TopK))
		}
	}
}

// TestWith2DRefusesNonPlanarData: on 3-D data the r/√2 cell of With2D
// puts points up to 1.22·r apart in one small-grid cell, so Lemma 1
// counts pairs that do not interact. Here three such pairs (1.195 apart
// at r = 1) lift object 0's lower bound to 3, above every true score,
// and the one interacting pair {4, 5} used to be pruned: object 0 with
// score 0 came back instead of score 1, without any error. The engine
// must refuse the option on such data and keep accepting it on a plane.
func TestWith2DRefusesNonPlanarData(t *testing.T) {
	const r = 1.0
	w := r / math.Sqrt2
	objects := [][]Point{
		{Pt(0.01, 0.01, 0.01), Pt(20*w+0.01, 0.01, 0.01), Pt(40*w+0.01, 0.01, 0.01)},
		{Pt(0.70, 0.70, 0.70)},
		{Pt(20*w+0.70, 0.70, 0.70)},
		{Pt(40*w+0.70, 0.70, 0.70)},
		{Pt(100, 100, 100)},
		{Pt(100.5, 100, 100)},
	}
	ds, err := NewDataset("tilted", objects)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(r)
	if err != nil {
		t.Fatal(err)
	}
	if want := (Scored{Obj: 4, Score: 1}); res.Best != want {
		t.Fatalf("default engine: best = %+v, want %+v", res.Best, want)
	}
	if _, err := NewEngine(ds, With2D()); err == nil || !strings.Contains(err.Error(), "planar") {
		t.Fatalf("With2D on non-planar data: err = %v, want a refusal naming the planar requirement", err)
	}
	if _, err := NewTemporalEngine(WithTimestamps(ds, 1, 10, 1), With2D()); err == nil || !strings.Contains(err.Error(), "planar") {
		t.Fatalf("temporal With2D on non-planar data: err = %v, want the same refusal", err)
	}

	// The same points on the plane z = 7: accepted, same answer as 3-D.
	for _, pts := range objects {
		for i := range pts {
			pts[i].Z = 7
		}
	}
	flat, err := NewDataset("flat", objects)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{nil, {With2D()}} {
		eng, err := NewEngine(flat, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		if want := (Scored{Obj: 0, Score: 3}); res.Best != want {
			t.Fatalf("planar data, %d options: best = %+v, want %+v", len(opts), res.Best, want)
		}
	}
}

func TestPublicAPIBadOptions(t *testing.T) {
	ds := testDataset(t)
	if _, err := NewEngine(ds, WithWorkers(-1)); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := NewEngine(ds, WithDiskLabels(string([]byte{0}))); err == nil {
		t.Error("invalid label dir accepted")
	}
}

func TestPublicAPIDiskLabels(t *testing.T) {
	ds := testDataset(t)
	dir := filepath.Join(t.TempDir(), "labels")
	eng, err := NewEngine(ds, WithDiskLabels(dir))
	if err != nil {
		t.Fatal(err)
	}
	first, err := eng.Query(40)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.UsedLabels {
		t.Fatal("first query claims label reuse")
	}
	second, err := eng.Query(40)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.UsedLabels {
		t.Fatal("second query did not reuse labels")
	}
	if second.Best.Score != first.Best.Score {
		t.Fatalf("label run changed the answer: %d vs %d", second.Best.Score, first.Best.Score)
	}
	// A fresh engine over the same directory picks the labels up from
	// disk.
	eng2, _ := NewEngine(ds, WithDiskLabels(dir))
	third, err := eng2.Query(40)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Stats.UsedLabels {
		t.Fatal("fresh engine ignored persisted labels")
	}
}

func TestPublicAPIDatasetRoundTrip(t *testing.T) {
	ds, err := NewDataset("api", [][]Point{
		{Pt(0, 0, 0), Pt(1, 0, 0)},
		{Pt(0.5, 0.5, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "api.bin")
	if err := SaveDataset(path, ds); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 || back.Name != "api" {
		t.Fatalf("round trip: %+v", back.Summary())
	}
	if _, err := NewDataset("bad", [][]Point{{}}); err == nil {
		t.Error("empty object accepted")
	}
}

func TestPublicAPITemporal(t *testing.T) {
	ds := WithTimestamps(testDataset(t), 1.0, 30, 41)
	eng, err := NewTemporalEngine(ds)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := eng.Query(40, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := eng.QueryTopK(40, 1.0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.TopK[0].Score > wide.Best.Score {
		t.Fatalf("narrow δ beat vacuous δ: %d > %d", narrow.TopK[0].Score, wide.Best.Score)
	}
	// Spatial-only data is rejected.
	if _, err := NewTemporalEngine(testDataset(t)); err == nil {
		t.Error("untimestamped dataset accepted")
	}
	// So is a label store, which the engine used to ignore.
	if _, err := NewTemporalEngine(ds, WithLabels()); err == nil || !strings.Contains(err.Error(), "label store") {
		t.Errorf("WithLabels: err = %v, want a refusal naming the label store", err)
	}
}

func TestStandardDatasetsPublic(t *testing.T) {
	sets := StandardDatasets(0.05)
	if len(sets) != 5 {
		t.Fatalf("datasets = %d", len(sets))
	}
	for name, ds := range sets {
		eng, err := NewEngine(ds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := eng.Query(5); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestPublicAnalysisAPI(t *testing.T) {
	ds := testDataset(t)
	eng, _ := NewEngine(ds, WithWorkers(2))
	scores, err := eng.AllScores(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != ds.N() {
		t.Fatalf("scores len = %d", len(scores))
	}
	sweep, err := eng.Sweep([]float64{20, 40}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep) != 2 || sweep[1].Result.Best.Score < sweep[0].Result.Best.Score {
		t.Fatalf("sweep = %+v", sweep)
	}
	set, err := eng.InteractingSet(40, sweep[1].Result.Best.Obj)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != sweep[1].Result.Best.Score {
		t.Fatalf("interacting set %d vs score %d", len(set), sweep[1].Result.Best.Score)
	}
	counts, width := ScoreHistogram(scores, 10)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(scores) || width < 1 {
		t.Fatalf("histogram total %d width %d", total, width)
	}
	if p := TopPercentile(scores, 1.0); p != sweep[1].Result.Best.Score {
		t.Fatalf("p100 %d vs best %d", p, sweep[1].Result.Best.Score)
	}
}

func TestGeneratorWrappers(t *testing.T) {
	if ds := GenerateNeuron(DefaultNeuronConfig()); ds.N() == 0 {
		t.Fatal("neuron")
	}
	cfg2 := DefaultNeuron2Config()
	cfg2.N = 20
	if ds := GenerateNeuron(cfg2); ds.N() != 20 {
		t.Fatal("neuron2")
	}
	bc := DefaultBirdConfig()
	bc.N = 30
	if ds := GenerateTrajectory(bc); ds.N() != 30 {
		t.Fatal("bird")
	}
	b2 := DefaultBird2Config()
	b2.N = 25
	if ds := GenerateTrajectory(b2); ds.N() != 25 {
		t.Fatal("bird2")
	}
	sc := DefaultSynConfig()
	sc.N = 40
	if ds := GeneratePowerLaw(sc); ds.N() != 40 {
		t.Fatal("syn")
	}
	if ds := GenerateUniform(UniformConfig{N: 10, M: 3, FieldSize: 10, Spread: 2, Seed: 1}); ds.N() != 10 {
		t.Fatal("uniform")
	}
}

func TestLoadCSVPublic(t *testing.T) {
	csvData := "tag,x,y\nA,0,0\nB,0.5,0\nC,99,99\n"
	ds, err := LoadCSV(strings.NewReader(csvData), CSVColumns{Obj: "tag", X: "x", Y: "y"})
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := NewEngine(ds, With2D())
	res, err := eng.Query(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Score != 1 {
		t.Fatalf("best = %+v", res.Best)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "d.csv")
	if err := os.WriteFile(path, []byte(csvData), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSVFile(path, CSVColumns{Obj: "tag", X: "x", Y: "y"})
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 3 {
		t.Fatalf("n = %d", back.N())
	}
	if _, err := LoadCSVFile(filepath.Join(dir, "missing.csv"), CSVColumns{Obj: "a", X: "b", Y: "c"}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestQueryContextPublic(t *testing.T) {
	ds := testDataset(t)
	eng, _ := NewEngine(ds)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.QueryContext(ctx, 40); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	res, err := eng.QueryTopKContext(context.Background(), 40, 2)
	if err != nil || len(res.TopK) != 2 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}
