package core

import (
	"reflect"
	"testing"

	"mio/internal/baseline"
	"mio/internal/core/labelstore"
	"mio/internal/data"
)

// Labels are collected during one query and consumed by later ones.
// The paper requires a consistent access order; our group-based
// labeling is additionally order-independent (the union of contributing
// groups equals the full union regardless of replay order), so labels
// collected under one execution mode must be valid under any other.
// These tests verify that empirically for all four combinations.
func TestLabelsCrossModeCompatibility(t *testing.T) {
	ds := data.GenTrajectory(data.TrajectoryConfig{
		N: 150, M: 25, Groups: 5, FieldSize: 2200, Speed: 18, FollowStd: 7, Solo: 0.3, Seed: 55,
	})
	r := 12.0
	oracle := baseline.NLScores(ds, r)
	wantTop := baselineScores(baseline.TopKFromScores(oracle, 4))

	modes := []struct {
		name string
		opts func(store *labelstore.Store) Options
	}{
		{"serial", func(s *labelstore.Store) Options { return Options{Labels: s} }},
		{"parallel", func(s *labelstore.Store) Options {
			return Options{Labels: s, Workers: 4}
		}},
	}
	for _, collect := range modes {
		for _, replay := range modes {
			t.Run(collect.name+"-then-"+replay.name, func(t *testing.T) {
				store := labelstore.NewStore()
				ce, err := NewEngine(ds, collect.opts(store))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ce.RunTopK(r, 4); err != nil {
					t.Fatal(err)
				}
				if !store.Has(int(12)) {
					t.Fatal("labels not collected")
				}
				re, err := NewEngine(ds, replay.opts(store))
				if err != nil {
					t.Fatal(err)
				}
				res, err := re.RunTopK(r, 4)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Stats.UsedLabels {
					t.Fatal("replay ignored labels")
				}
				if got := scoreMultiset(res.TopK); !reflect.DeepEqual(got, wantTop) {
					t.Fatalf("scores %v, oracle %v", got, wantTop)
				}
				for _, s := range res.TopK {
					if oracle[s.Obj] != s.Score {
						t.Fatalf("obj %d: %d vs true %d", s.Obj, s.Score, oracle[s.Obj])
					}
				}
				// Warm at r₁, ask r₂ under the same ceiling: Labeling-1/-2
				// carry over, Labeling-3 (collected for r₁'s b(o_i)) must not.
				for _, r2 := range []float64{11.05, 11.6} {
					res, err := re.RunTopK(r2, 4)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Stats.UsedLabels {
						t.Fatalf("r=%g ignored the ⌈r⌉=12 labels", r2)
					}
					want := baselineScores(baseline.NL(ds, r2, 4))
					if got := scoreMultiset(res.TopK); !reflect.DeepEqual(got, want) {
						t.Fatalf("labels from r=%g reused at r=%g: scores %v, oracle %v", r, r2, got, want)
					}
				}
			})
		}
	}
}

// TestLabelsSurviveDifferentRSameCeil checks the core §III-D contract:
// labels collected at r=11.2 must be valid for any r' with ⌈r'⌉ = 12.
func TestLabelsSurviveDifferentRSameCeil(t *testing.T) {
	ds := data.GenNeuron(data.NeuronConfig{
		N: 35, M: 120, Clusters: 3, FieldSize: 140, ClusterStd: 18, StepLen: 1.2, Branches: 4, Seed: 56,
	})
	store := labelstore.NewStore()
	eng, _ := NewEngine(ds, Options{Labels: store})
	if _, err := eng.Run(11.2); err != nil { // collects for ⌈r⌉ = 12
		t.Fatal(err)
	}
	for _, r := range []float64{11.1, 11.5, 11.9, 12.0} {
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
		if !res.Stats.UsedLabels {
			t.Fatalf("r=%g: labels unused (ceil=12 expected)", r)
		}
		if res.Best.Score != best {
			t.Fatalf("r=%g: best %d, oracle %d", r, res.Best.Score, best)
		}
	}
	// A threshold with a different ceiling must NOT use the labels and
	// must still be exact.
	res, err := eng.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.UsedLabels {
		t.Fatal("r=7 used ⌈r⌉=12 labels")
	}
	oracle := baseline.NLScores(ds, 7)
	best := 0
	for _, s := range oracle {
		if s > best {
			best = s
		}
	}
	if res.Best.Score != best {
		t.Fatalf("r=7: best %d, oracle %d", res.Best.Score, best)
	}
}

// TestLabelReuseAcrossDistinctR is the regression test for Labeling-3
// being keyed by ⌈r⌉ alone: a label set collected at r=5.5 used to make
// verification at r≈5.04 and 5.1 skip points whose candidate mask was
// empty only for the larger r's b(o_i), losing one interaction of the
// top object (224 instead of 225).
func TestLabelReuseAcrossDistinctR(t *testing.T) {
	cfg := data.DefaultBird2()
	cfg.N = 450
	ds := data.GenTrajectory(cfg)
	for _, workers := range []int{1, 3} {
		store := labelstore.NewStore()
		eng, err := NewEngine(ds, Options{Labels: store, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RunTopK(5.5, 1); err != nil { // collects for ⌈r⌉ = 6
			t.Fatal(err)
		}
		if l, ok := store.Get(6); !ok || l.R != 5.5 {
			t.Fatalf("workers=%d: collected labels do not record r=5.5: %+v", workers, l)
		}
		for _, r := range []float64{5.0445, 5.1, 5.5, 5.9} {
			want := 0
			for _, sc := range baseline.SGScores(ds, r) {
				want = max(want, sc)
			}
			res, err := eng.RunTopK(r, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stats.UsedLabels {
				t.Fatalf("workers=%d r=%g: labels unused", workers, r)
			}
			if res.Best.Score != want {
				t.Errorf("workers=%d r=%g: top score %d with labels warmed at r=5.5, oracle %d", workers, r, res.Best.Score, want)
			}
		}
	}
}
