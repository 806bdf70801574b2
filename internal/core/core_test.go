package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"mio/internal/baseline"
	"mio/internal/core/labelstore"
	"mio/internal/data"
)

// testDatasets builds small versions of all five stand-in datasets plus
// a uniform control and the two extremes of the posting layout: sparse
// (every posting shorter than the distance kernel's 4-wide stride) and
// onecell (at r ≥ 6 one large-grid cell holding a posting per object).
func testDatasets(tb testing.TB) map[string]*data.Dataset {
	tb.Helper()
	sets := map[string]*data.Dataset{
		"neuron": data.GenNeuron(data.NeuronConfig{
			N: 40, M: 120, Clusters: 4, FieldSize: 250, ClusterStd: 25, StepLen: 1.5, Branches: 4, Seed: 11,
		}),
		"bird": data.GenTrajectory(data.TrajectoryConfig{
			N: 120, M: 30, Groups: 6, FieldSize: 4000, Speed: 25, FollowStd: 10, Solo: 0.4, Seed: 12,
		}),
		"syn": data.GenPowerLaw(data.PowerLawConfig{
			N: 300, M: 6, Alpha: 1.5, Clusters: 30, FieldSize: 8000, HubStd: 6, Seed: 13,
		}),
		"uniform": data.GenUniform(data.UniformConfig{
			N: 150, M: 8, FieldSize: 500, Spread: 12, Seed: 14,
		}),
		"sparse": data.GenUniformSparse(data.UniformSparseConfig{
			N: 300, M: 3, FieldSize: 1500, Spread: 15, Seed: 15,
		}),
		"onecell": data.GenOneCell(data.OneCellConfig{N: 60, M: 20, Side: 6, Seed: 16}),
	}
	for name, ds := range sets {
		if err := ds.Validate(); err != nil {
			tb.Fatalf("dataset %s invalid: %v", name, err)
		}
	}
	return sets
}

// rValues gives per-dataset thresholds that exercise sparse, medium and
// dense interaction regimes.
func rValues(name string) []float64 {
	switch name {
	case "neuron":
		return []float64{2, 5, 10}
	case "bird":
		return []float64{15, 40, 90}
	case "syn":
		return []float64{5, 12, 30}
	case "onecell":
		return []float64{0.5, 1.5, 6}
	default:
		return []float64{4, 10, 25}
	}
}

// scoreMultiset extracts the sorted score list for comparing top-k
// answers whose tie-breaks may differ.
func scoreMultiset(s []Scored) []int {
	out := make([]int, len(s))
	for i, e := range s {
		out[i] = e.Score
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

func baselineScores(s []baseline.Scored) []int {
	out := make([]int, len(s))
	for i, e := range s {
		out[i] = e.Score
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

func TestEngineMatchesNLOracle(t *testing.T) {
	for name, ds := range testDatasets(t) {
		for _, r := range rValues(name) {
			oracle := baseline.NLScores(ds, r)
			eng, err := NewEngine(ds, Options{})
			if err != nil {
				t.Fatalf("%s: NewEngine: %v", name, err)
			}
			res, err := eng.Run(r)
			if err != nil {
				t.Fatalf("%s r=%g: Run: %v", name, r, err)
			}
			bestScore := 0
			for _, s := range oracle {
				if s > bestScore {
					bestScore = s
				}
			}
			if res.Best.Score != bestScore {
				t.Errorf("%s r=%g: best score %d, oracle %d", name, r, res.Best.Score, bestScore)
			}
			if oracle[res.Best.Obj] != res.Best.Score {
				t.Errorf("%s r=%g: reported object %d has oracle score %d, engine said %d",
					name, r, res.Best.Obj, oracle[res.Best.Obj], res.Best.Score)
			}
		}
	}
}

func TestEngineBoundsSandwichExactScores(t *testing.T) {
	for name, ds := range testDatasets(t) {
		for _, r := range rValues(name) {
			oracle := baseline.NLScores(ds, r)
			eng, _ := NewEngine(ds, Options{})
			q := newQuery(eng, r, 1)
			q.gridMapping()
			q.lowerBounding()
			q.computeUpperBounds()
			// The bound vectors are indexed by internal id.
			for i, j := range eng.ord.ext {
				if exact := oracle[j]; int(q.tauLow[i]) > exact {
					t.Fatalf("%s r=%g obj %d: lower bound %d > exact %d", name, r, j, q.tauLow[i], exact)
				}
				if exact := oracle[j]; int(q.tauUpp[i]) < exact {
					t.Fatalf("%s r=%g obj %d: upper bound %d < exact %d", name, r, j, q.tauUpp[i], exact)
				}
			}
		}
	}
}

func TestEngineTopKMatchesOracle(t *testing.T) {
	for name, ds := range testDatasets(t) {
		r := rValues(name)[1]
		oracle := baseline.NLScores(ds, r)
		eng, _ := NewEngine(ds, Options{})
		for _, k := range []int{1, 3, 10, 25} {
			res, err := eng.RunTopK(r, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			want := baselineScores(baseline.TopKFromScores(oracle, k))
			got := scoreMultiset(res.TopK)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s r=%g k=%d: top-k scores %v, oracle %v", name, r, k, got, want)
			}
			// Every reported object's score must be its true score.
			for _, s := range res.TopK {
				if oracle[s.Obj] != s.Score {
					t.Errorf("%s k=%d: object %d reported %d, true %d", name, k, s.Obj, s.Score, oracle[s.Obj])
				}
			}
		}
	}
}

func TestEngineParallelMatchesSerial(t *testing.T) {
	for name, ds := range testDatasets(t) {
		r := rValues(name)[1]
		serialEng, _ := NewEngine(ds, Options{})
		serial, err := serialEng.RunTopK(r, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			for _, lb := range []LBStrategy{LBGreedyD, LBHashP} {
				for _, ub := range []UBStrategy{UBGreedyP, UBGreedyD} {
					eng, _ := NewEngine(ds, Options{Workers: workers, LB: lb, UB: ub})
					res, err := eng.RunTopK(r, 5)
					if err != nil {
						t.Fatalf("%s w=%d %v/%v: %v", name, workers, lb, ub, err)
					}
					if !reflect.DeepEqual(scoreMultiset(res.TopK), scoreMultiset(serial.TopK)) {
						t.Errorf("%s w=%d %v/%v: scores %v, serial %v",
							name, workers, lb, ub, scoreMultiset(res.TopK), scoreMultiset(serial.TopK))
					}
				}
			}
		}
	}
}

func TestEngineLabelsPreserveResults(t *testing.T) {
	for name, ds := range testDatasets(t) {
		store := labelstore.NewStore()
		eng, _ := NewEngine(ds, Options{Labels: store})
		plain, _ := NewEngine(ds, Options{})
		// Query sequence with shared ⌈r⌉ values: the first query per
		// ceiling collects labels, later ones consume them.
		rs := append(rValues(name), rValues(name)...)
		for qi, r := range rs {
			want, err := plain.RunTopK(r, 3)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.RunTopK(r, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scoreMultiset(got.TopK), scoreMultiset(want.TopK)) {
				t.Errorf("%s query %d r=%g: labeled scores %v, plain %v (usedLabels=%v)",
					name, qi, r, scoreMultiset(got.TopK), scoreMultiset(want.TopK), got.Stats.UsedLabels)
			}
			if qi >= len(rs)/2 && !got.Stats.UsedLabels {
				t.Errorf("%s query %d r=%g: expected label reuse", name, qi, r)
			}
		}
	}
}

func TestEngineLabelsWithParallel(t *testing.T) {
	ds := testDatasets(t)["bird"]
	r := 40.0
	plain, _ := NewEngine(ds, Options{})
	want, _ := plain.RunTopK(r, 3)
	store := labelstore.NewStore()
	eng, _ := NewEngine(ds, Options{Labels: store, Workers: 4})
	for pass := 0; pass < 3; pass++ {
		got, err := eng.RunTopK(r, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scoreMultiset(got.TopK), scoreMultiset(want.TopK)) {
			t.Fatalf("pass %d: scores %v, want %v", pass, scoreMultiset(got.TopK), scoreMultiset(want.TopK))
		}
	}
}

func TestEngineAgainstSGAndNLKD(t *testing.T) {
	ds := testDatasets(t)["neuron"]
	for _, r := range rValues("neuron") {
		eng, _ := NewEngine(ds, Options{})
		res, _ := eng.RunTopK(r, 5)
		sg := baseline.SG(ds, r, 5)
		nlkd := baseline.NLKD(ds, r, 5)
		if !reflect.DeepEqual(scoreMultiset(res.TopK), baselineScores(sg)) {
			t.Errorf("r=%g: engine %v vs SG %v", r, scoreMultiset(res.TopK), baselineScores(sg))
		}
		if !reflect.DeepEqual(baselineScores(sg), baselineScores(nlkd)) {
			t.Errorf("r=%g: SG %v vs NLKD %v", r, baselineScores(sg), baselineScores(nlkd))
		}
	}
}

func TestEngineErrors(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 10, M: 4, FieldSize: 100, Spread: 5, Seed: 1})
	if _, err := NewEngine(&data.Dataset{}, Options{}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewEngine(ds, Options{Dims: 5}); err == nil {
		t.Error("bad dims accepted")
	}
	eng, _ := NewEngine(ds, Options{})
	if _, err := eng.Run(0); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := eng.Run(-3); err == nil {
		t.Error("negative r accepted")
	}
	if _, err := eng.RunTopK(5, 0); err == nil {
		t.Error("k=0 accepted")
	}
	// k larger than n clamps.
	res, err := eng.RunTopK(5, 100)
	if err != nil {
		t.Fatalf("k>n: %v", err)
	}
	if len(res.TopK) != 10 {
		t.Errorf("k>n returned %d results, want 10", len(res.TopK))
	}
	bad := &data.Dataset{Objects: []data.Object{{ID: 1}}}
	if _, err := NewEngine(bad, Options{}); err == nil {
		t.Error("invalid dataset accepted")
	}
}

func TestEngine2D(t *testing.T) {
	// Bird data is planar; Dims=2 widens the small-grid cells (r/√2 vs
	// r/√3) and must produce identical answers with tighter bounds.
	ds := testDatasets(t)["bird"]
	r := 40.0
	oracle := baseline.NLScores(ds, r)
	best := 0
	for _, s := range oracle {
		if s > best {
			best = s
		}
	}
	eng2, _ := NewEngine(ds, Options{Dims: 2})
	res2, err := eng2.Run(r)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Best.Score != best {
		t.Fatalf("2D best score %d, oracle %d", res2.Best.Score, best)
	}
	// The 2-D small grid has fewer, larger cells, so lower bounds can
	// only improve (or stay equal) relative to 3-D. Check pipeline
	// consistency instead of exact equality: bounds sandwich.
	q := newQuery(eng2, r, 1)
	q.gridMapping()
	q.lowerBounding()
	q.computeUpperBounds()
	for i, j := range eng2.ord.ext {
		if exact := oracle[j]; int(q.tauLow[i]) > exact || int(q.tauUpp[i]) < exact {
			t.Fatalf("obj %d: bounds [%d,%d] miss exact %d", j, q.tauLow[i], q.tauUpp[i], exact)
		}
	}
}

func TestSingleObjectDataset(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 1, M: 5, FieldSize: 10, Spread: 2, Seed: 9})
	eng, _ := NewEngine(ds, Options{})
	res, err := eng.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Obj != 0 || res.Best.Score != 0 {
		t.Fatalf("single-object result = %+v", res.Best)
	}
}

// TestIndexBytesIndependentOfK pins that the reported index footprint
// is a function of (dataset, r): k changes how much upper bounding and
// verification run, and so which b^adj are memoised, but the footprint
// counts the grids without them.
func TestIndexBytesIndependentOfK(t *testing.T) {
	ds := testDatasets(t)["bird"]
	eng, _ := NewEngine(ds, Options{})
	one, err := eng.RunTopK(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	all, err := eng.RunTopK(40, ds.N())
	if err != nil {
		t.Fatal(err)
	}
	if all.Stats.Verified <= one.Stats.Verified {
		t.Fatalf("k=n verified %d objects, k=1 %d: the runs must differ in verification work", all.Stats.Verified, one.Stats.Verified)
	}
	if one.Stats.LargeGridBytes != all.Stats.LargeGridBytes || one.Stats.IndexBytes != all.Stats.IndexBytes {
		t.Errorf("k=1 reports large grid %d B / index %d B, k=n %d B / %d B",
			one.Stats.LargeGridBytes, one.Stats.IndexBytes, all.Stats.LargeGridBytes, all.Stats.IndexBytes)
	}
}

func TestStatsPopulated(t *testing.T) {
	ds := testDatasets(t)["syn"]
	eng, _ := NewEngine(ds, Options{})
	res, _ := eng.Run(12)
	st := res.Stats
	if st.GridMapping <= 0 || st.SmallCells == 0 || st.LargeCells == 0 {
		t.Errorf("grid stats missing: %+v", st)
	}
	if st.IndexBytes <= 0 {
		t.Error("IndexBytes not populated")
	}
	if st.Verified == 0 || st.Candidates == 0 {
		t.Errorf("verification stats missing: %+v", st)
	}
	if st.Verified > st.Candidates {
		t.Errorf("verified %d > candidates %d", st.Verified, st.Candidates)
	}
	if st.Total() <= 0 {
		t.Error("Total() not positive")
	}
}

func TestPruningActuallyPrunes(t *testing.T) {
	// On the skewed syn dataset most objects must be pruned before
	// verification — that is the whole point of the paper.
	ds := testDatasets(t)["syn"]
	eng, _ := NewEngine(ds, Options{})
	res, _ := eng.Run(12)
	if res.Stats.Verified >= ds.N()/2 {
		t.Errorf("verified %d of %d objects; pruning ineffective", res.Stats.Verified, ds.N())
	}
}

func TestQueryCancellation(t *testing.T) {
	ds := testDatasets(t)["syn"]
	eng, _ := NewEngine(ds, Options{})
	// Already-cancelled context fails fast with the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.RunTopKContext(ctx, 12, 3, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A background context behaves like the plain call.
	res, err := eng.RunTopKContext(context.Background(), 12, 3, false)
	if err != nil || len(res.TopK) != 3 {
		t.Fatalf("background run: %v %v", res, err)
	}
	// A deadline in the past cancels too.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := eng.RunTopKContext(dctx, 12, 1, false); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline err = %v", err)
	}
}
