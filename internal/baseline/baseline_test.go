package baseline

import (
	"math"
	"reflect"
	"testing"

	"mio/internal/data"
	"mio/internal/geom"
)

// tiny fixture with hand-computable interactions:
//
//	o0: points near origin
//	o1: one point within 1.5 of o0
//	o2: far away cluster, within 2 of o3
//	o3: far away cluster
func fixture() *data.Dataset {
	return &data.Dataset{
		Name: "fixture",
		Objects: []data.Object{
			{ID: 0, Pts: []geom.Point{geom.Pt(0, 0, 0), geom.Pt(1, 0, 0)}},
			{ID: 1, Pts: []geom.Point{geom.Pt(2, 0, 0)}},
			{ID: 2, Pts: []geom.Point{geom.Pt(100, 0, 0)}},
			{ID: 3, Pts: []geom.Point{geom.Pt(100, 1.5, 0)}},
		},
	}
}

func TestNLScoresFixture(t *testing.T) {
	ds := fixture()
	// r=1: o0-o1 interact (dist 1 between (1,0,0) and (2,0,0)).
	if got := NLScores(ds, 1); !reflect.DeepEqual(got, []int{1, 1, 0, 0}) {
		t.Fatalf("r=1 scores = %v", got)
	}
	// r=1.5: additionally o2-o3.
	if got := NLScores(ds, 1.5); !reflect.DeepEqual(got, []int{1, 1, 1, 1}) {
		t.Fatalf("r=1.5 scores = %v", got)
	}
	// r=0.5: nothing.
	if got := NLScores(ds, 0.5); !reflect.DeepEqual(got, []int{0, 0, 0, 0}) {
		t.Fatalf("r=0.5 scores = %v", got)
	}
}

func TestTopKFromScores(t *testing.T) {
	top := TopKFromScores([]int{3, 9, 9, 1}, 3)
	want := []Scored{{Obj: 1, Score: 9}, {Obj: 2, Score: 9}, {Obj: 0, Score: 3}}
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("top = %v", top)
	}
	if got := TopKFromScores([]int{5}, 10); len(got) != 1 {
		t.Fatalf("k>n = %v", got)
	}
}

func randomDataset(seed int64) *data.Dataset {
	return data.GenUniform(data.UniformConfig{N: 60, M: 10, FieldSize: 120, Spread: 8, Seed: seed})
}

func TestAllBaselinesAgree(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ds := randomDataset(seed)
		for _, r := range []float64{3, 8, 20} {
			nl := NLScores(ds, r)
			nlkd := NLKDScores(ds, r)
			sg := SGScores(ds, r)
			if !reflect.DeepEqual(nl, nlkd) {
				t.Fatalf("seed %d r=%g: NL %v vs NLKD %v", seed, r, nl, nlkd)
			}
			if !reflect.DeepEqual(nl, sg) {
				t.Fatalf("seed %d r=%g: NL %v vs SG %v", seed, r, nl, sg)
			}
		}
	}
}

func TestParallelBaselinesAgree(t *testing.T) {
	ds := randomDataset(7)
	r := 8.0
	want := NL(ds, r, 5)
	for _, workers := range []int{2, 4} {
		if got := NLParallel(ds, r, 5, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("NLParallel(%d) = %v, want %v", workers, got, want)
		}
		if got := SGParallel(ds, r, 5, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("SGParallel(%d) = %v, want %v", workers, got, want)
		}
	}
}

func TestTheoreticalMatchesNL(t *testing.T) {
	ds := randomDataset(9)
	th := BuildTheoretical(ds, 2)
	for _, r := range []float64{3, 8, 20} {
		want := NLScores(ds, r)
		for i := range want {
			if got := th.Score(i, r); got != want[i] {
				t.Fatalf("r=%g obj %d: theoretical %d, NL %d", r, i, got, want[i])
			}
		}
		if got := th.Query(r, 3); !reflect.DeepEqual(got, TopKFromScores(want, 3)) {
			t.Fatalf("r=%g: Query = %v", r, got)
		}
	}
	if th.SizeBytes() < ds.N()*ds.N()*8 {
		t.Errorf("theoretical index suspiciously small: %d bytes", th.SizeBytes())
	}
}

func TestSGIndexAccounting(t *testing.T) {
	ds := randomDataset(11)
	idx := BuildSG(ds, 8)
	if idx.Cells() == 0 {
		t.Fatal("no cells")
	}
	if idx.SizeBytes() <= 0 {
		t.Fatal("no size")
	}
}

// TestPostingBlockEmpty covers cells and postings with no points.
func TestPostingBlockEmpty(t *testing.T) {
	b := NewPostingBlock(nil)
	if len(b.Off) != 1 || len(b.Boxes) != 0 || len(b.Xs) != 0 {
		t.Fatalf("empty block: %+v", b)
	}
	if b.SizeBytes() <= 0 {
		t.Fatal("SizeBytes must count headers")
	}
	b = NewPostingBlock([]Posting{{Obj: 3}})
	if xs, _, _ := b.Points(0); len(xs) != 0 {
		t.Fatalf("pointless posting has %d points", len(xs))
	}
	if !b.Boxes[0].Empty() {
		t.Fatalf("pointless posting AABB not empty: %+v", b.Boxes[0])
	}
}

func TestTemporalOracleConstraints(t *testing.T) {
	ds := &data.Dataset{
		Objects: []data.Object{
			{ID: 0, Pts: []geom.Point{geom.Pt(0, 0, 0)}, Times: []float64{0}},
			{ID: 1, Pts: []geom.Point{geom.Pt(1, 0, 0)}, Times: []float64{5}},
			{ID: 2, Pts: []geom.Point{geom.Pt(0.5, 0, 0)}, Times: []float64{0.5}},
		},
	}
	// Spatially all within r=2. Temporal δ=1: only 0-2 qualify.
	if got := TemporalNLScores(ds, 2, 1); !reflect.DeepEqual(got, []int{1, 0, 1}) {
		t.Fatalf("δ=1 scores = %v", got)
	}
	// δ=10: all pairs.
	if got := TemporalNLScores(ds, 2, 10); !reflect.DeepEqual(got, []int{2, 2, 2}) {
		t.Fatalf("δ=10 scores = %v", got)
	}
	// Exactly δ apart counts (≤).
	if got := TemporalNLScores(ds, 2, 4.5); !reflect.DeepEqual(got, []int{1, 1, 2}) {
		t.Fatalf("δ=4.5 scores = %v", got)
	}
	if got := TemporalNL(ds, 2, 10, 1); got[0].Score != 2 {
		t.Fatalf("TemporalNL = %v", got)
	}
}

func TestInteractsBoundaryInclusive(t *testing.T) {
	a := &data.Object{Pts: []geom.Point{geom.Pt(0, 0, 0)}}
	b := objCoords{xs: []float64{3}, ys: []float64{4}, zs: []float64{0}}
	if !interacts(a, b, 25) { // dist exactly 5, r²=25
		t.Fatal("boundary distance not inclusive")
	}
	if interacts(a, b, 25-1e-9) {
		t.Fatal("beyond-boundary counted")
	}
	if math.Sqrt(25) != 5 {
		t.Fatal("sanity")
	}
}

func TestRTBaselinesAgreeWithNL(t *testing.T) {
	ds := randomDataset(21)
	for _, r := range []float64{3, 8, 20} {
		nl := NLScores(ds, r)
		rtObj, st := RTObjectScores(ds, r)
		if !reflect.DeepEqual(nl, rtObj) {
			t.Fatalf("r=%g: RTObject %v vs NL %v", r, rtObj, nl)
		}
		if st.CandidatePairs < st.InteractingPairs {
			t.Fatalf("r=%g: stats inconsistent: %+v", r, st)
		}
		rtPt := RTPointScores(ds, r)
		if !reflect.DeepEqual(nl, rtPt) {
			t.Fatalf("r=%g: RTPoint %v vs NL %v", r, rtPt, nl)
		}
		if got := RTObject(ds, r, 3); !reflect.DeepEqual(got, TopKFromScores(nl, 3)) {
			t.Fatalf("r=%g: RTObject topk = %v", r, got)
		}
		if got := RTPoint(ds, r, 3); !reflect.DeepEqual(got, TopKFromScores(nl, 3)) {
			t.Fatalf("r=%g: RTPoint topk = %v", r, got)
		}
	}
}

func TestRTObjectFilterDegeneratesOnElongatedObjects(t *testing.T) {
	// §II-B's argument: elongated objects make the MBR filter useless.
	// Neuron-like arbors criss-cross, so nearly every MBR pair passes
	// even though far fewer pairs interact.
	ds := data.GenNeuron(data.NeuronConfig{
		N: 40, M: 200, Clusters: 2, FieldSize: 120, ClusterStd: 20, StepLen: 1, Branches: 5, Seed: 23,
	})
	r := 2.0
	scores, st := RTObjectScores(ds, r)
	interacting := 0
	for _, s := range scores {
		interacting += s
	}
	interacting /= 2
	if st.CandidatePairs < 2*interacting {
		t.Skipf("filter unexpectedly selective: %d candidates, %d interacting", st.CandidatePairs, interacting)
	}
	// The point of the test: the filter passes far more pairs than
	// interact, confirming the paper's rationale for grids over MBRs.
	if st.CandidatePairs == 0 {
		t.Fatal("no candidates at all")
	}
	t.Logf("MBR filter: %d candidate pairs for %d interacting (%.1fx overshoot)",
		st.CandidatePairs, interacting, float64(st.CandidatePairs)/float64(maxPairs(interacting, 1)))
}

func maxPairs(a, b int) int {
	if a > b {
		return a
	}
	return b
}
