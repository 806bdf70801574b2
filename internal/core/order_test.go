package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mio/internal/baseline"
	"mio/internal/core/labelstore"
	"mio/internal/data"
)

// shuffled returns a copy of ds with its objects in a seeded random
// order, sharing ds's points, and to, with to[j] the id in the copy of
// ds's object j.
func shuffled(ds *data.Dataset, seed int64) (*data.Dataset, []int) {
	perm := rand.New(rand.NewSource(seed)).Perm(ds.N())
	out := &data.Dataset{Name: ds.Name + "+shuffled", Objects: make([]data.Object, ds.N())}
	to := make([]int, ds.N())
	for i, j := range perm {
		o := ds.Objects[j]
		out.Objects[i] = data.Object{ID: i, Pts: o.Pts, Times: o.Times}
		to[j] = i
	}
	return out, to
}

// permuted returns scores renumbered through to: out[to[j]] = scores[j].
func permuted(scores []int, to []int) []int {
	out := make([]int, len(scores))
	for j, s := range scores {
		out[to[j]] = s
	}
	return out
}

// wantTopK is baseline.TopKFromScores as engine Scored values.
func wantTopK(scores []int, k int) []Scored {
	var out []Scored
	for _, s := range baseline.TopKFromScores(scores, k) {
		out = append(out, Scored{Obj: s.Obj, Score: s.Score})
	}
	return out
}

// TestSpatialOrderIsAPermutation: the internal order is a permutation
// whose two maps invert each other, and the view's objects are the
// caller's, point slices shared.
func TestSpatialOrderIsAPermutation(t *testing.T) {
	for name, ds := range testDatasets(t) {
		view, ord := spatialOrder(ds)
		for i, j := range ord.ext {
			if int(ord.pos[j]) != i {
				t.Fatalf("%s: pos[ext[%d]] = %d", name, i, ord.pos[j])
			}
			o := view.Objects[i]
			if o.ID != i || &o.Pts[0] != &ds.Objects[j].Pts[0] {
				t.Fatalf("%s: view object %d is not the caller's object %d", name, i, j)
			}
		}
		if err := view.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestMorton3 pins the magic-number spread against the per-bit
// definition of the interleave.
func TestMorton3(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n < 1000; n++ {
		x, y, z := uint64(rng.Int63n(mortonMax+1)), uint64(rng.Int63n(mortonMax+1)), uint64(rng.Int63n(mortonMax+1))
		if n == 0 {
			x, y, z = mortonMax, mortonMax, mortonMax
		}
		var want uint64
		for b := 0; b < 21; b++ {
			want |= (x>>b&1)<<(3*b) | (y>>b&1)<<(3*b+1) | (z>>b&1)<<(3*b+2)
		}
		if got := morton3(x, y, z); got != want {
			t.Fatalf("morton3(%d, %d, %d) = %#x, want %#x", x, y, z, got, want)
		}
	}
}

// TestIDOrderInvariance runs every exported entry point that takes or
// returns object ids on a dataset and on a shuffled copy: the answers
// must agree up to the shuffle, so the engine's internal order never
// shows. It covers the test datasets and the adversarial shapes.
func TestIDOrderInvariance(t *testing.T) {
	sets := testDatasets(t)
	for name, ds := range data.Adversarial(0.05) {
		sets[name] = ds
	}
	ctx := context.Background()
	for name, ds := range sets {
		r := invarianceR(name, ds)
		sh, to := shuffled(ds, 5)
		a, err := NewEngine(ds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewEngine(sh, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Dataset() != ds || b.Dataset() != sh {
			t.Fatalf("%s: Dataset() is not the caller's dataset", name)
		}

		// AllScores is indexed by the caller's id.
		sa, err := a.AllScores(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.AllScores(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(permuted(sa, to), sb) {
			t.Fatalf("%s r=%g: AllScores differs on the shuffled copy", name, r)
		}

		// RunTopK: the canonical top-k of each copy's scores.
		for _, k := range []int{1, 3, ds.N()} {
			ra, err := a.RunTopK(r, k)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.RunTopK(r, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ra.TopK, wantTopK(sa, k)) || !reflect.DeepEqual(rb.TopK, wantTopK(sb, k)) || ra.Best != ra.TopK[0] {
				t.Fatalf("%s r=%g k=%d: top-k %v / %v, want %v / %v", name, r, k, ra.TopK, rb.TopK, wantTopK(sa, k), wantTopK(sb, k))
			}
			if ra.Stats.Candidates != rb.Stats.Candidates || ra.Stats.Verified != rb.Stats.Verified ||
				ra.Stats.DistanceComps != rb.Stats.DistanceComps || ra.Stats.AdjComputed != rb.Stats.AdjComputed {
				t.Fatalf("%s r=%g k=%d: work counts differ on the shuffled copy: %+v vs %+v", name, r, k, ra.Stats, rb.Stats)
			}
		}

		// InteractingSet takes and returns the caller's ids, ascending.
		best := wantTopK(sa, 1)[0].Obj
		for _, j := range []int{0, best, ds.N() - 1} {
			ia, err := a.InteractingSet(context.Background(), r, j)
			if err != nil {
				t.Fatal(err)
			}
			ib, err := b.InteractingSet(context.Background(), r, to[j])
			if err != nil {
				t.Fatal(err)
			}
			if len(ia) != sa[j] || !slices.IsSorted(ia) || !slices.IsSorted(ib) {
				t.Fatalf("%s r=%g: InteractingSet(%d) = %v, score %d", name, r, j, ia, sa[j])
			}
			mapped := make([]int, len(ia))
			for x, o := range ia {
				mapped[x] = to[o]
			}
			slices.Sort(mapped)
			if !reflect.DeepEqual(mapped, ib) {
				t.Fatalf("%s r=%g: InteractingSet(%d) differs on the shuffled copy", name, r, j)
			}
		}

		// Bound with a restrict mask in the caller's ids: TopLBs over
		// every allowed object, MaxUB and the completed answer.
		allowA, allowB := make([]bool, ds.N()), make([]bool, ds.N())
		allowedScores := make([]int, ds.N())
		for j := range allowA {
			allowA[j] = j%3 != 1
			allowB[to[j]] = allowA[j]
			if allowA[j] {
				allowedScores[j] = sa[j]
			} else {
				allowedScores[j] = -1
			}
		}
		nAllowed := countAllowed(allowA, ds.N())
		for _, k := range []int{2, nAllowed} {
			ba, err := a.Bound(ctx, r, k, allowA)
			if err != nil {
				t.Fatal(err)
			}
			bb, err := b.Bound(ctx, r, k, allowB)
			if err != nil {
				t.Fatal(err)
			}
			la, lb := ba.TopLBs(), bb.TopLBs()
			if k == nAllowed {
				// Every allowed object: the lower bounds agree object by
				// object.
				mapped := make([]Scored, len(la))
				for x, s := range la {
					if !allowA[s.Obj] {
						t.Fatalf("%s: TopLBs reports disallowed object %d", name, s.Obj)
					}
					mapped[x] = Scored{Obj: to[s.Obj], Score: s.Score}
				}
				slices.SortFunc(mapped, func(x, y Scored) int {
					if x.Score != y.Score {
						return y.Score - x.Score
					}
					return x.Obj - y.Obj
				})
				if !reflect.DeepEqual(mapped, lb) {
					t.Fatalf("%s r=%g: TopLBs differ on the shuffled copy", name, r)
				}
			}
			for _, s := range la {
				if !allowA[s.Obj] || s.Score > sa[s.Obj] {
					t.Fatalf("%s r=%g: TopLBs entry %+v is not a lower bound of an allowed object", name, r, s)
				}
			}
			if ba.MaxUB() != bb.MaxUB() {
				t.Fatalf("%s r=%g: MaxUB %d vs %d", name, r, ba.MaxUB(), bb.MaxUB())
			}
			ca, err := ba.Complete(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			cb, err := bb.Complete(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := wantTopK(allowedScores, k); !reflect.DeepEqual(ca.TopK, want) {
				t.Fatalf("%s r=%g k=%d: restricted answer %v, want %v", name, r, k, ca.TopK, want)
			}
			if want := wantTopK(permuted(allowedScores, to), k); !reflect.DeepEqual(cb.TopK, want) {
				t.Fatalf("%s r=%g k=%d: restricted answer on the shuffled copy %v, want %v", name, r, k, cb.TopK, want)
			}
		}

		// TemporalEngine.RunTopK on the same objects stamped with times,
		// at k = n: every object's temporal score, in canonical order.
		tds := data.WithTimestamps(ds, 1, 40, 9)
		tsh, _ := shuffled(tds, 5)
		var temporal [2][]int
		for x, d := range []*data.Dataset{tds, tsh} {
			te, err := NewTemporalEngine(d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := te.RunTopK(r, 4, d.N())
			if err != nil {
				t.Fatal(err)
			}
			temporal[x] = make([]int, d.N())
			for _, s := range res.TopK {
				temporal[x][s.Obj] = s.Score
			}
			if !reflect.DeepEqual(res.TopK, wantTopK(temporal[x], d.N())) {
				t.Fatalf("%s r=%g δ=4: temporal top-k is not in canonical order", name, r)
			}
		}
		if !reflect.DeepEqual(permuted(temporal[0], to), temporal[1]) {
			t.Fatalf("%s r=%g δ=4: temporal scores differ on the shuffled copy", name, r)
		}

		// Labels are stored in the caller's ids: the sets two copies
		// collect agree under the shuffle, and a second query on each
		// reads its set back to the canonical answer.
		stA, stB := labelstore.NewStore(), labelstore.NewStore()
		la, _ := NewEngine(ds, Options{Labels: stA})
		lb, _ := NewEngine(sh, Options{Labels: stB})
		for x, e := range []*Engine{la, lb} {
			scores := [][]int{sa, sb}[x]
			for pass := 0; pass < 2; pass++ {
				res, err := e.RunTopK(r, 2)
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.UsedLabels != (pass == 1) || !reflect.DeepEqual(res.TopK, wantTopK(scores, 2)) {
					t.Fatalf("%s r=%g pass %d: labelled top-k %v, want %v", name, r, pass, res.TopK, wantTopK(scores, 2))
				}
			}
		}
		ceil := int(math.Ceil(r))
		setA, okA := stA.Get(ceil)
		setB, okB := stB.Get(ceil)
		if !okA || !okB {
			t.Fatalf("%s: no labels collected", name)
		}
		for j, row := range setA.PerObject {
			if !reflect.DeepEqual(row, setB.PerObject[to[j]]) || len(row) != len(ds.Objects[j].Pts) {
				t.Fatalf("%s r=%g: label row of object %d differs on the shuffled copy", name, r, j)
			}
		}
	}
}

// invarianceR is a threshold with interactions on each dataset of
// TestIDOrderInvariance: rValues' middle one, or a fortieth of an
// adversarial dataset's extent.
func invarianceR(name string, ds *data.Dataset) float64 {
	switch name {
	case "neuron", "bird", "syn", "uniform", "sparse", "onecell":
		return rValues(name)[1]
	}
	e := ds.Bounds().Extent()
	return math.Max(1, max(e.X, e.Y, e.Z)/40)
}
