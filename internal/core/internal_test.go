package core

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mio/internal/baseline"
	"mio/internal/core/labelstore"
	"mio/internal/data"
	"mio/internal/geom"
	"mio/internal/grid"
)

func TestInsertTopK(t *testing.T) {
	var top []Scored
	for _, s := range []Scored{{1, 5}, {2, 9}, {3, 2}, {4, 9}, {5, 7}} {
		top = insertTopK(top, s, 3)
	}
	// 9 (obj 2), 9 (obj 4, after 2), 7 (obj 5).
	want := []Scored{{2, 9}, {4, 9}, {5, 7}}
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("top = %v, want %v", top, want)
	}
	// Inserting below the kth is a no-op.
	if got := insertTopK(top, Scored{6, 1}, 3); !reflect.DeepEqual(got, want) {
		t.Fatalf("low insert changed top: %v", got)
	}
	// k=1 keeps only the best; ties keep the earlier entry.
	one := insertTopK(nil, Scored{1, 4}, 1)
	one = insertTopK(one, Scored{2, 4}, 1)
	if !reflect.DeepEqual(one, []Scored{{1, 4}}) {
		t.Fatalf("tie-break = %v", one)
	}
}

func TestInsertTopKQuickSorted(t *testing.T) {
	f := func(scores []uint8, k8 uint8) bool {
		k := int(k8%10) + 1
		var top []Scored
		for i, s := range scores {
			top = insertTopK(top, Scored{Obj: i, Score: int(s)}, k)
		}
		if len(top) > k {
			return false
		}
		// Must equal the k largest values, sorted descending.
		all := make([]int, len(scores))
		for i, s := range scores {
			all[i] = int(s)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(all)))
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := make([]int, len(top))
		for i, s := range top {
			got[i] = s.Score
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKthHighest(t *testing.T) {
	e := &Engine{}
	q := &query{e: e, k: 1}
	if got := q.kthHighest([]int32{3, 9, 1}); got != 9 {
		t.Fatalf("k=1: %d", got)
	}
	q.k = 2
	if got := q.kthHighest([]int32{3, 9, 1}); got != 3 {
		t.Fatalf("k=2: %d", got)
	}
	q.k = 5
	if got := q.kthHighest([]int32{3, 9, 1}); got != 0 {
		t.Fatalf("k>n: %d", got)
	}
}

func TestCandidateOrdering(t *testing.T) {
	ds := data.GenUniform(data.UniformConfig{N: 80, M: 6, FieldSize: 150, Spread: 10, Seed: 77})
	eng, _ := NewEngine(ds, Options{})
	q := newQuery(eng, 8, 1)
	q.gridMapping()
	q.lowerBounding()
	q.computeUpperBounds()
	cand := q.assembleCandidates(0)
	for i := 1; i < len(cand); i++ {
		if cand[i].tauUpp > cand[i-1].tauUpp {
			t.Fatal("candidates not sorted by upper bound")
		}
		if cand[i].tauUpp == cand[i-1].tauUpp && cand[i].obj < cand[i-1].obj {
			t.Fatal("tie-break not by object id")
		}
	}
	// threshold 0 keeps everyone.
	if len(cand) != ds.N() {
		t.Fatalf("candidates = %d, want %d", len(cand), ds.N())
	}
}

func TestLabelsActuallyPrunePoints(t *testing.T) {
	// After a collecting run, a meaningful number of points must carry
	// cleared label bits, and the labeled re-run must do less work.
	ds := data.GenTrajectory(data.TrajectoryConfig{
		N: 200, M: 30, Groups: 6, FieldSize: 2500, Speed: 20, FollowStd: 8, Solo: 0.4, Seed: 88,
	})
	store := labelstore.NewStore()
	eng, _ := NewEngine(ds, Options{Labels: store})
	first, err := eng.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	l, ok := store.Get(10)
	if !ok {
		t.Fatal("labels not stored")
	}
	mapped, upper, verify := l.Counts()
	if mapped == 0 {
		t.Error("Labeling-1 never fired on sparse trajectory data")
	}
	if upper == 0 {
		t.Error("Labeling-2 never fired")
	}
	_ = verify // Labeling-3 fires only for verified candidates; may be 0
	second, err := eng.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.UsedLabels {
		t.Fatal("labels unused on re-run")
	}
	if second.Best.Score != first.Best.Score {
		t.Fatalf("labels changed the answer: %d vs %d", second.Best.Score, first.Best.Score)
	}
	if second.Stats.GridMapping >= first.Stats.GridMapping*2 {
		t.Errorf("labeled grid mapping slower: %v vs %v", second.Stats.GridMapping, first.Stats.GridMapping)
	}
	// Labeled index must not be larger: 0** points are never mapped.
	if second.Stats.IndexBytes > first.Stats.IndexBytes {
		t.Errorf("labeled index grew: %d > %d", second.Stats.IndexBytes, first.Stats.IndexBytes)
	}
}

func TestParallelGridMappingEquivalence(t *testing.T) {
	// The merged parallel BIGrid must be structurally identical to the
	// serial one: same cells, same bitsets, same key-list sets.
	ds := data.GenNeuron(data.NeuronConfig{
		N: 30, M: 80, Clusters: 3, FieldSize: 120, ClusterStd: 15, StepLen: 1, Branches: 3, Seed: 91,
	})
	eng, _ := NewEngine(ds, Options{})
	qs := newQuery(eng, 5, 1)
	qs.gridMapping()

	engP, _ := NewEngine(ds, Options{Workers: 4})
	qp := newQuery(engP, 5, 1)
	qp.gridMapping()

	if qs.idx.small.Len() != qp.idx.small.Len() {
		t.Fatalf("small cells: %d vs %d", qs.idx.small.Len(), qp.idx.small.Len())
	}
	if qs.idx.large.Len() != qp.idx.large.Len() {
		t.Fatalf("large cells: %d vs %d", qs.idx.large.Len(), qp.idx.large.Len())
	}
	// Key lists may differ in order but must be equal as sets.
	for i := range qs.idx.keyLists {
		a := keySet(qs.idx.keyLists[i])
		b := keySet(qp.idx.keyLists[i])
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("object %d key lists differ", i)
		}
	}
	// Groups must cover the same points per object.
	for i := range qs.idx.groups {
		if groupPointCount(qs.idx.groups[i]) != groupPointCount(qp.idx.groups[i]) {
			t.Fatalf("object %d group coverage differs", i)
		}
	}
}

func keySet(keys []grid.Key) map[grid.Key]bool {
	m := make(map[grid.Key]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func groupPointCount(gs []pointGroup) int {
	n := 0
	for _, g := range gs {
		n += len(g.pts)
	}
	return n
}

func TestScoreStateMaskReuse(t *testing.T) {
	// Two objects sharing a straight line of near-identical points
	// exercise the consecutive-same-cell mask reuse; scores must match
	// the oracle exactly.
	var a, b []geom.Point
	for i := 0; i < 40; i++ {
		a = append(a, geom.Pt(float64(i)*0.2, 0, 0))
		b = append(b, geom.Pt(float64(i)*0.2, 0.5, 0))
	}
	ds := &data.Dataset{Objects: []data.Object{
		{ID: 0, Pts: a},
		{ID: 1, Pts: b},
		{ID: 2, Pts: []geom.Point{geom.Pt(100, 100, 100)}},
	}}
	oracle := baseline.NLScores(ds, 1)
	eng, _ := NewEngine(ds, Options{})
	res, err := eng.RunTopK(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.TopK {
		if oracle[s.Obj] != s.Score {
			t.Fatalf("obj %d: %d vs oracle %d", s.Obj, s.Score, oracle[s.Obj])
		}
	}
}

func TestQuickBoundsSandwich(t *testing.T) {
	// Property: for random micro-datasets and thresholds, lower ≤ exact
	// ≤ upper for every object.
	type input struct {
		Seed int64
		R    uint8
	}
	f := func(in input) bool {
		r := 1 + float64(in.R%20)
		ds := data.GenUniform(data.UniformConfig{
			N: 25, M: 4, FieldSize: 80, Spread: 8, Seed: in.Seed,
		})
		oracle := baseline.NLScores(ds, r)
		eng, _ := NewEngine(ds, Options{})
		q := newQuery(eng, r, 1)
		q.gridMapping()
		q.lowerBounding()
		q.computeUpperBounds()
		for i, exact := range oracle {
			if int(q.tauLow[i]) > exact || int(q.tauUpp[i]) < exact {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
