package core

import (
	"fmt"
	"testing"

	"mio/internal/bitmap"
	"mio/internal/data"
	"mio/internal/grid"
)

// checkCountBounds maps q's grids and holds countBounds against a
// per-group sum over LargeGrid.Neighbors and against Lemma 2: B_i must
// be min(n − 1, Σ_g (S(g.cell) − 1)) exactly, and at least τ^upp(o_i)
// for every object.
func checkCountBounds(t *testing.T, at string, q *query) {
	t.Helper()
	q.gridMapping()
	large := q.idx.large
	b := countBounds(q.idx)
	scratch := bitmap.NewScratch(q.n)
	var neigh [grid.MaxNeighbors]int32
	for i := 0; i < q.n; i++ {
		sum := 0
		for _, g := range q.idx.groups[i] {
			for _, nc := range neigh[:large.Neighbors(int(g.cell), &neigh)] {
				if nc >= 0 {
					sum += len(large.CellObjs(int(nc)))
				}
			}
			sum--
		}
		if want := int32(min(sum, q.n-1)); b[i] != want {
			t.Fatalf("%s: object %d: B = %d, want min(n − 1, Σ (S − 1)) = %d", at, i, b[i], want)
		}
		if tau := q.upperBoundObject(i, scratch, &ctrSet{}); b[i] < tau {
			t.Fatalf("%s: object %d: B = %d below Lemma 2's τ^upp = %d", at, i, b[i], tau)
		}
	}
}

// TestCountBoundSound runs checkCountBounds on every test dataset at
// each of its radii (and at Dims 2 on the planar ones), on the
// adversarial shapes, and on a temporal dataset whose neighbourhoods
// span three time buckets (halo 1) or one (δ = 0).
func TestCountBoundSound(t *testing.T) {
	for name, ds := range testDatasets(t) {
		for _, r := range rValues(name) {
			eng, _ := NewEngine(ds, Options{})
			checkCountBounds(t, fmt.Sprintf("%s r=%g", name, r), newQuery(eng, r, 1))
			if planar(ds) {
				eng, _ := NewEngine(ds, Options{Dims: 2})
				checkCountBounds(t, fmt.Sprintf("%s r=%g dims=2", name, r), newQuery(eng, r, 1))
			}
		}
	}
	for name, ds := range data.Adversarial(0.15) {
		for _, r := range []float64{1.5, 4, 10} {
			eng, _ := NewEngine(ds, Options{})
			checkCountBounds(t, fmt.Sprintf("%s r=%g", name, r), newQuery(eng, r, 1))
		}
	}
	te, err := NewTemporalEngine(temporalDataset(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{15, 40} {
		for _, delta := range []float64{0, 2, 8} {
			q := newQuery(te.e, r, 1)
			q.delta, q.bucket = delta, te.buckets(delta)
			if delta > 0 {
				q.halo = 1
			}
			checkCountBounds(t, fmt.Sprintf("temporal r=%g δ=%g", r, delta), q)
		}
	}
}
