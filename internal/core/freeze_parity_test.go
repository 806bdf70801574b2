package core

import (
	"reflect"
	"testing"

	"mio/internal/grid"
)

// TestFrozenMatchesAoS locks the SoA freeze down as a pure layout
// change: with freezing disabled (AoS posting walk, scalar Dist2),
// forced everywhere (threshold 1: flat blocks, AABB pruning, batch
// kernels on every probed cell) and at the default threshold (big cells
// frozen, small cells AoS), identical queries must return
// identical top-k answers AND identical work counters — distComps in
// particular, since the AABB only resolves pairs in bulk that the
// scalar loop would have rejected one by one. The threshold is not an
// option; the rows force it through Options.freezeMinPoints.
func TestFrozenMatchesAoS(t *testing.T) {
	for name, ds := range testDatasets(t) {
		for _, r := range rValues(name) {
			for _, workers := range []int{1, 4} {
				run := func(opts Options) *Result {
					t.Helper()
					opts.Workers = workers
					eng, err := NewEngine(ds, opts)
					if err != nil {
						t.Fatal(err)
					}
					res, err := eng.RunTopK(r, 5)
					if err != nil {
						t.Fatalf("%s r=%g w=%d %+v: %v", name, r, workers, opts, err)
					}
					return res
				}
				aos := run(Options{freezeMinPoints: -1})
				frozen := run(Options{freezeMinPoints: 1})
				mixed := run(Options{}) // default threshold
				for i, res := range []*Result{frozen, mixed} {
					label := []string{"frozen", "mixed"}[i]
					if !reflect.DeepEqual(res.TopK, aos.TopK) {
						t.Errorf("%s r=%g w=%d: %s top-k %v, AoS %v",
							name, r, workers, label, res.TopK, aos.TopK)
					}
					if res.Stats.DistanceComps != aos.Stats.DistanceComps {
						t.Errorf("%s r=%g w=%d: %s distComps %d, AoS %d — pruning changed the accounting",
							name, r, workers, label, res.Stats.DistanceComps, aos.Stats.DistanceComps)
					}
					if res.Stats.Candidates != aos.Stats.Candidates || res.Stats.Verified != aos.Stats.Verified {
						t.Errorf("%s r=%g w=%d: %s candidates/verified %d/%d vs %d/%d",
							name, r, workers, label, res.Stats.Candidates, res.Stats.Verified,
							aos.Stats.Candidates, aos.Stats.Verified)
					}
				}
				// Lazily frozen cells must show up in the footprint
				// accounting (IndexBytes is taken after verification), so
				// the frozen run can never report a smaller grid. (Equal is
				// fine: a query whose masks empty out before any cell probe
				// freezes nothing. TestQueryPathIsFrozen pins the case where
				// freezing must happen.)
				if workers == 1 && frozen.Stats.LargeGridBytes < aos.Stats.LargeGridBytes {
					t.Errorf("%s r=%g: frozen large grid %dB smaller than AoS %dB",
						name, r, frozen.Stats.LargeGridBytes, aos.Stats.LargeGridBytes)
				}
			}
		}
	}
}

// TestQueryPathIsFrozen asserts lazy freezing actually happens on the
// production query path: at threshold 1 a query that verified
// candidates leaves frozen cells behind (exactly the probed ones), and
// a negative threshold leaves none. It drives the internal query object
// so it can inspect the grid the run used.
func TestQueryPathIsFrozen(t *testing.T) {
	ds := testDatasets(t)["bird"]
	r := rValues("bird")[1]
	for _, workers := range []int{1, 4} {
		for _, disable := range []bool{false, true} {
			opts := Options{Workers: workers, freezeMinPoints: 1}
			if disable {
				opts.freezeMinPoints = -1
			}
			eng, err := NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			q := newQuery(eng, r, 1)
			res, err := q.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Verified == 0 {
				t.Fatalf("w=%d: query verified nothing, probe path never ran", workers)
			}
			frozen, total := 0, 0
			q.idx.large.ForEach(func(_ grid.Key, c *grid.LargeCell) {
				total++
				if c.Frozen() != nil {
					frozen++
				}
			})
			if disable && frozen != 0 {
				t.Fatalf("w=%d freezing off: %d of %d cells frozen", workers, frozen, total)
			}
			if !disable && frozen == 0 {
				t.Fatalf("w=%d: no cells frozen despite %d verified candidates", workers, res.Stats.Verified)
			}
			if !disable && frozen == total && total > 50 {
				t.Fatalf("w=%d: all %d cells frozen — freezing is not lazy", workers, total)
			}
		}
	}
}
