package core

import (
	"fmt"
	"reflect"
	"testing"

	"mio/internal/core/labelstore"
)

// TestKnobParity is the answer-invariance contract of the execution
// options: every assignment of Workers × LB × UB × label collection
// must return the identical top-k AND the identical work counters as
// the serial run. DistanceComps in particular must be bitwise equal —
// TestWorkCounts (internal/bench) pins it by exact value, so a strategy
// that changed the count at some worker count could not be told from an
// algorithmic change. Candidates and Verified pin the bounding phases
// and the Corollary-1 termination point the same way. Dims is checked
// on planar data only (NewEngine refuses it elsewhere): the wider cell
// moves the counters, so Dims 2 has its own serial reference, whose
// answer must equal the 3-D one.
func TestKnobParity(t *testing.T) {
	for name, ds := range testDatasets(t) {
		dimsAxis := []int{3}
		if planar(ds) {
			dimsAxis = append(dimsAxis, 2)
		}
		for _, r := range []float64{6, 10} {
			var want3 *Result
			for _, dims := range dimsAxis {
				run := func(opts Options) *Result {
					t.Helper()
					opts.Dims = dims
					eng, err := NewEngine(ds, opts)
					if err != nil {
						t.Fatal(err)
					}
					res, err := eng.RunTopK(r, 3)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				want := run(Options{Workers: 1})
				if dims == 3 {
					want3 = want
				} else if !reflect.DeepEqual(want.TopK, want3.TopK) {
					t.Errorf("%s r=%g: 2-D topk %v, 3-D %v", name, r, want.TopK, want3.TopK)
				}
				// The literal is rebuilt per (r, dims), so each label row
				// starts from a cold store: collection must not move a counter.
				for _, opts := range []Options{
					{Workers: 2},
					{Workers: 3},
					{Workers: 8},
					{Workers: 4, LB: LBHashP},
					{Workers: 4, UB: UBGreedyD},
					{Workers: 2, LB: LBHashP, UB: UBGreedyD},
					{Workers: 1, Labels: labelstore.NewStore()},
					{Workers: 2, LB: LBHashP, UB: UBGreedyP, Labels: labelstore.NewStore()},
					{Workers: 5, LB: LBHashP, UB: UBGreedyD, Labels: labelstore.NewStore()},
				} {
					got := run(opts)
					at := fmt.Sprintf("%s r=%g dims=%d w=%d %v %v collect=%v",
						name, r, dims, opts.Workers, opts.LB, opts.UB, opts.Labels != nil)
					if !reflect.DeepEqual(got.TopK, want.TopK) {
						t.Errorf("%s: topk %v, want %v", at, got.TopK, want.TopK)
					}
					if got.Stats.DistanceComps != want.Stats.DistanceComps {
						t.Errorf("%s: dist_comps %d, want %d (serial)", at, got.Stats.DistanceComps, want.Stats.DistanceComps)
					}
					if got.Stats.Candidates != want.Stats.Candidates || got.Stats.Verified != want.Stats.Verified {
						t.Errorf("%s: candidates/verified %d/%d, want %d/%d", at,
							got.Stats.Candidates, got.Stats.Verified, want.Stats.Candidates, want.Stats.Verified)
					}
				}
			}
		}
	}
}

// TestKnobParityLabels extends the invariance contract to the §III-D
// label path: the label store COLLECTED by a parallel run must equal
// the serially collected one (the workers' share-empty vectors AND
// together to the serial full-mask condition), and a query CONSUMING
// those labels must report serial-identical counters at every worker
// count.
func TestKnobParityLabels(t *testing.T) {
	ds := testDatasets(t)["bird"]
	const r, k = 10, 3

	serialStore := labelstore.NewStore()
	serialEng, err := NewEngine(ds, Options{Workers: 1, Labels: serialStore})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := serialEng.RunTopK(r, k); err != nil { // collect
		t.Fatal(err)
	}
	wantLabels, ok := serialStore.Get(int(10))
	if !ok {
		t.Fatal("serial run collected no labels")
	}
	want, err := serialEng.RunTopK(r, k) // consume
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4, 7} {
		store := labelstore.NewStore()
		eng, err := NewEngine(ds, Options{Workers: workers, Labels: store})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunTopK(r, k); err != nil {
			t.Fatal(err)
		}
		gotLabels, ok := store.Get(int(10))
		if !ok {
			t.Fatalf("workers=%d collected no labels", workers)
		}
		if !reflect.DeepEqual(gotLabels.PerObject, wantLabels.PerObject) {
			gm, gu, gv := gotLabels.Counts()
			wm, wu, wv := wantLabels.Counts()
			t.Fatalf("workers=%d: collected labels differ from serial (cleared mapped/upper/verify %d/%d/%d, want %d/%d/%d)",
				workers, gm, gu, gv, wm, wu, wv)
		}
		got, err := eng.RunTopK(r, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.TopK, want.TopK) {
			t.Errorf("workers=%d labeled run: topk %v, want %v", workers, got.TopK, want.TopK)
		}
		if got.Stats.DistanceComps != want.Stats.DistanceComps {
			t.Errorf("workers=%d labeled run: dist_comps %d, want %d",
				workers, got.Stats.DistanceComps, want.Stats.DistanceComps)
		}
	}
}
